"""Built-in named Euclidean Lie algebras with known quantities, plus the
verification suite that recomputes every stored quantity with the toolkit.

Entries expose their metric parameters so sweeps can vary them; the stored
expected values refer to the documented default parameters unless a value is
parameter-independent (bracket traces, for instance, do not depend on the
metric).  ``run_verification_suite`` recomputes everything and returns a
machine-readable report; it is the executable form of the package's worked
examples and the gate the command-line ``catalog`` command reports on.
"""

from __future__ import annotations

import math
import os
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from . import _linalg as la
from ._linalg import DEFAULT_TOL, Tolerance
from .core import (
    EuclideanLieAlgebra,
    InnerProduct,
    LieAlgebra,
    Subalgebra,
    _negligible,
    check_jacobi,
    second_fundamental,
)
from .cone import (
    SL2_BRACKETS,
    Automorphism,
    automorphism_trace_form,
    exp_adjoint,
    harmonic_cone,
    harmonic_dimension_check,
    sl2_adjoint_matrix,
    sl2_residuals,
)
from .maps import (
    KahlerStructure,
    LieAlgebraMap,
    bitension,
    check_composition,
    check_kahler,
    classify,
    tension,
)
from . import semidirect as sm


class CatalogError(ValueError):
    """Unknown entry name or parameters outside the documented range."""


@dataclass(frozen=True)
class CatalogEntry:
    """A named algebra with its metric and the quantities known for it."""

    name: str
    ela: EuclideanLieAlgebra
    expected: Dict[str, object]
    extras: Dict[str, object] = field(default_factory=dict)


#: Float catalog parameters closer than this are equal (exact ones only when equal).
_PARAM_TOL = Tolerance(1e-12, 0.0)


def _entry(name: str, dim: int, brackets, gram, exact: bool, expected: Dict[str, object],
           at_default: Optional[Dict[str, object]] = None, alg_name: Optional[str] = None,
           **extras) -> CatalogEntry:
    """The entry ``name`` of the algebra ``brackets`` (named ``alg_name``,
    default ``name``) with the Gram matrix ``gram`` (None: the identity);
    the ``at_default`` values are expected only for the identity."""
    alg_name = alg_name or name
    alg = LieAlgebra.from_brackets(dim, brackets, name=alg_name, exact=exact)
    if gram is None:
        inner = InnerProduct.identity(dim, exact)
        expected.update(at_default or {})
    else:
        inner = InnerProduct.of(gram, exact)
    return CatalogEntry(name, EuclideanLieAlgebra(alg, inner, name=alg_name), expected, extras)


def _finite(name: str, *values) -> None:
    """Refuse NaN and infinities; a comparison with inf, unlike ``float()``,
    takes an exact value of any size."""
    for v in values:
        if not -math.inf < v < math.inf:
            raise CatalogError(f"{name}: parameters must be finite, got {v}")


def _positive(name: str, *values) -> None:
    for v in values:
        if not 0 < v < math.inf:
            raise CatalogError(f"{name}: parameters must be positive and finite, got {v}")


def _diagonal(name: str, alphas) -> List[List[object]]:
    """The Gram matrix diag(alphas) of three positive ``alphas``."""
    if len(alphas) != 3:
        raise CatalogError(f"{name}: alphas must be three values, got {len(alphas)}")
    _positive(name, *alphas)
    return [[alphas[0], 0, 0], [0, alphas[1], 0], [0, 0, alphas[2]]]


def _entry_e1(a=1.0, gram=None, exact: bool = False) -> CatalogEntry:
    """Two-dimensional non-abelian algebra [e, f] = a e."""
    _finite("e1", a)
    if a == 0:
        raise CatalogError("e1: the bracket coefficient must be nonzero")
    return _entry("e1", 2, {(0, 1): [a, 0]}, gram, exact, {
        "unimodular": False,
        "kill_dim": 0,                       # holds for every metric
        "u_covector": la.as_matrix([0, -a], exact).tolist(),   # tr(ad_v), metric-independent
    }, {"ch_dim": 1})


def _entry_heis3(alpha=1.0, gram=None, exact: bool = False) -> CatalogEntry:
    """Heisenberg algebra in the ordering (z, f, g) with [f, g] = alpha z."""
    _positive("heis3", alpha)
    return _entry("heis3", 3, {(1, 2): [alpha, 0, 0]}, gram, exact, {
        "unimodular": True,
        "u_covector": la.zeros(3, exact).tolist(),
    }, {"kill_dim": 1, "ch_dim": 4})


def _entry_sl2(alphas=(1.0, 1.0, 1.0), exact: bool = False) -> CatalogEntry:
    """Split simple algebra in the basis (h, e, f): [h,e]=2e, [h,f]=-2f,
    [e,f]=h; metric diag(alphas)."""
    gram = _diagonal("sl2", alphas)
    return _entry("sl2", 3, SL2_BRACKETS, gram, exact, {
        "unimodular": True,
        "u_covector": la.zeros(3, exact).tolist(),
        "kill_dim": 0,
        "ch_dim": 3,
    }, alphas=tuple(alphas))


def _entry_so3(alphas=(1.0, 1.0, 1.0), exact: bool = False) -> CatalogEntry:
    """Compact simple algebra [X1,X2]=X3 (cyclically); metric diag(alphas).

    The repeated-eigenvalue cone dimension stored here is the one computed
    by this toolkit and by the unimodular dimension formula
    n(n-1)/2 + dim Kill: with exactly two equal parameters the Killing
    subalgebra is 1-dimensional, giving 3 + 1 = 4.
    """
    gram = _diagonal("so3", alphas)
    a1, a2, a3 = la.as_matrix(alphas, exact).tolist()   # the Gram diagonal the entry holds
    n_eq = sum(_negligible(x - y, _PARAM_TOL, norm=abs)
               for x, y in ((a1, a2), (a1, a3), (a2, a3)))
    if n_eq == 3:
        kill, ch = 3, 6
    elif n_eq == 1:
        kill, ch = 1, 4
    else:
        kill, ch = 0, 3
    return _entry("so3", 3, {
        (0, 1): [0, 0, 1],
        (1, 2): [1, 0, 0],
        (0, 2): [0, -1, 0],
    }, gram, exact, {
        "unimodular": True,
        "u_covector": la.zeros(3, exact).tolist(),
        "kill_dim": kill,
        "ch_dim": ch,
        "biinvariant": n_eq == 3,
    }, alphas=tuple(alphas))


def _entry_nilp5(gram=None, exact: bool = False) -> CatalogEntry:
    """Five-dimensional two-step-solvable nilpotent algebra
    [e1,e2]=e3, [e1,e3]=e5, [e2,e4]=e5, with the minimal codimension-one
    subalgebra span{e1,e2,e3,e5}."""
    e3v, e5v = [0, 0, 1, 0, 0], [0, 0, 0, 0, 1]
    return _entry("nilp5", 5, {(0, 1): e3v, (0, 2): e5v, (1, 3): e5v}, gram, exact, {
        "unimodular": True,
        "u_covector": la.zeros(5, exact).tolist(),
        "minimal_subalgebra": [0, 1, 2, 4],
    }, {"kill_dim": 1, "ch_dim": 11})


def _entry_abelian(n=3, gram=None, exact: bool = False) -> CatalogEntry:
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
        raise CatalogError(f"abelian: dimension must be an integer, got {n!r}")
    if n < 1:
        raise CatalogError("abelian: dimension must be at least 1")
    return _entry("abelian", n, {}, gram, exact, {
        "unimodular": True,
        "u_covector": la.zeros(n, exact).tolist(),
        "kill_dim": n,
        "ch_dim": n * (n - 1) // 2 + n,
        "biinvariant": True,
    }, alg_name=f"abelian{n}")


def _entry_e2flat(lam=1.0, gram=None, exact: bool = False) -> CatalogEntry:
    """Flat non-abelian model: [e3,e1] = lam e2, [e3,e2] = -lam e1."""
    _positive("e2flat", lam)
    return _entry("e2flat", 3, {
        (0, 2): [0, -lam, 0],
        (1, 2): [lam, 0, 0],
    }, gram, exact, {
        "unimodular": True,
        "u_covector": la.zeros(3, exact).tolist(),
    }, {"kill_dim": 1, "ch_dim": 4, "flat": True})


def _entry_aff2solv(beta=0.5, gram=None, exact: bool = False) -> CatalogEntry:
    """Non-unimodular solvable family [e3,e1] = e1, [e3,e2] = beta e2."""
    _finite("aff2solv", beta)
    u_covector = la.as_matrix([0, 0, 1 + beta], exact)
    if _negligible(u_covector[2], _PARAM_TOL, norm=abs):
        raise CatalogError("aff2solv: beta = -1 is the unimodular degeneration")
    return _entry("aff2solv", 3, {
        (0, 2): [-1, 0, 0],
        (1, 2): [0, -beta, 0],
    }, gram, exact, {
        "unimodular": False,
        "u_covector": u_covector.tolist(),
    }, {"kill_dim": 0})


def _entry_tangent(base: str = "e1", tol: Tolerance = DEFAULT_TOL,
                   **base_params) -> CatalogEntry:
    """Total algebra of the tangent-group data over a named base entry."""
    base_entry = get(base, **base_params)
    sd = sm.tangent_semidirect(base_entry.ela)
    total, proj = sm.build_semidirect(sd, tol)
    u = base_entry.ela.unimodular_vector(tol)
    unimod = base_entry.ela.is_unimodular(tol)
    expected: Dict[str, object] = {
        "unimodular": unimod,
        "projection_tension": list(-np.asarray(u)),
        "projection_harmonic": unimod,
        "projection_biharmonic": unimod,
        "riemannian_submersion": True,
    }
    return CatalogEntry(f"tangent({base_entry.name})", total, expected,
                        extras={"data": sd, "projection": proj,
                                "base": base_entry.ela})


_BUILDERS: Dict[str, Callable[..., CatalogEntry]] = {
    "e1": _entry_e1,
    "heis3": _entry_heis3,
    "sl2": _entry_sl2,
    "so3": _entry_so3,
    "nilp5": _entry_nilp5,
    "abelian": _entry_abelian,
    "e2flat": _entry_e2flat,
    "aff2solv": _entry_aff2solv,
    "tangent": _entry_tangent,
}


def names() -> List[str]:
    return sorted(_BUILDERS)


def get(name: str, **params) -> CatalogEntry:
    """Build a catalog entry by name.  Unknown names and out-of-range
    parameters raise ``CatalogError``."""
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise CatalogError(
            f"unknown catalog entry {name!r}; known: {', '.join(names())}"
        ) from None
    try:
        return builder(**params)
    except TypeError as exc:
        raise CatalogError(f"bad parameters for {name!r}: {exc}") from exc


# ---------------------------------------------------------------------------
# verification suite
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SuiteCheck:
    name: str
    expected: str
    measured: str
    passed: bool

    def to_dict(self) -> Dict[str, object]:
        return {"name": self.name, "expected": self.expected,
                "measured": self.measured, "passed": self.passed}


@dataclass(frozen=True)
class SuiteReport:
    checks: Tuple[SuiteCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def failures(self) -> List[SuiteCheck]:
        return [c for c in self.checks if not c.passed]

    def to_dict(self) -> Dict[str, object]:
        return {"passed": self.passed,
                "total": len(self.checks),
                "failed": len(self.failures),
                "checks": [c.to_dict() for c in self.checks]}


#: Fraction of ``atol`` at or below which :meth:`_Recorder.small` reports zero.
_NOISE_FLOOR = 1e-6

_PACKAGE_DIR = os.path.dirname(os.path.abspath(__file__))


def _crash_site(exc: BaseException) -> str:
    """``lieharm/<file>:<line> in <function>`` of the last traceback frame
    of ``exc`` inside the package."""
    frames = [f for f in traceback.extract_tb(exc.__traceback__)
              if os.path.dirname(os.path.abspath(f.filename)) == _PACKAGE_DIR]
    last = frames[-1]
    return f"lieharm/{os.path.basename(last.filename)}:{last.lineno} in {last.name}"


class _Recorder:
    def __init__(self):
        self.checks: List[SuiteCheck] = []

    def add(self, name: str, expected, measured, passed: bool):
        self.checks.append(SuiteCheck(name=name, expected=str(expected),
                                      measured=str(measured), passed=bool(passed)))

    def equal(self, name: str, expected, measured):
        self.add(name, expected, measured, expected == measured)

    def close(self, name: str, expected, measured, atol: float):
        e = np.asarray(expected, dtype=float)
        m = np.asarray(measured, dtype=float)
        self.add(name, np.array2string(e, precision=6),
                 np.array2string(m, precision=6),
                 e.shape == m.shape and bool(np.allclose(e, m, atol=atol)))

    def small(self, name: str, measured: float, atol: float):
        """A quantity that must vanish to ``atol``.  Values at most
        ``_NOISE_FLOOR * atol`` are rounding noise, whose digits depend on the
        summation order, and print as ``0.000e+00`` like exact zeros."""
        shown = 0.0 if measured <= _NOISE_FLOOR * atol else measured
        self.add(name, f"|.| <= {atol:g}", f"{shown:.3e}", measured <= atol)


def _random_gram(rng, n: int) -> np.ndarray:
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    lam = rng.uniform(0.3, 3.0, size=n)
    return q @ np.diag(lam) @ q.T


def _entry_checks(rec: _Recorder, name: str, entry: CatalogEntry, tol: Tolerance):
    ela = entry.ela
    jacobi = check_jacobi(ela.alg, tol)
    rec.add(f"{name}: bracket satisfies the Jacobi identity", "defect <= tol",
            "ok" if jacobi else "violated", jacobi)
    exp = entry.expected
    if "unimodular" in exp:
        rec.equal(f"{name}: unimodular", exp["unimodular"], ela.is_unimodular(tol))
    if "u_covector" in exp:
        measured = la.matmul(ela.gram, ela.unimodular_vector(tol))
        rec.close(f"{name}: bracket-trace covector", exp["u_covector"], measured, 1e-9)
    if "kill_dim" in exp:
        rec.equal(f"{name}: Killing subalgebra dimension", exp["kill_dim"],
                  ela.killing_subalgebra(tol).shape[1])
    if "ch_dim" in exp:
        rec.equal(f"{name}: harmonic-cone dimension", exp["ch_dim"],
                  harmonic_cone(ela, tol).dimension)
    if "biinvariant" in exp:
        rec.equal(f"{name}: bi-invariant", exp["biinvariant"], ela.is_biinvariant(tol))
    if exp.get("unimodular") and "ch_dim" in exp:
        measured, predicted = harmonic_dimension_check(ela, tol)
        rec.equal(f"{name}: cone dimension matches n(n-1)/2 + dim Kill",
                  predicted, measured)
    if "flat" in exp:
        rec.small(f"{name}: curvature vanishes", ela.max_curvature_norm(), 1e-9)


def _catalog_entry(name: str, label: Optional[str] = None, **params):
    """The suite check that builds ``get(name, **params)``, exactly in an
    exact run, and recomputes its stored quantities, reported under
    ``label`` (default: the entry name)."""
    label = label or name

    def check(rec, title, rng, tol, seed, exact):
        _entry_checks(rec, label, get(name, exact=exact, **params), tol)

    return f"{label}: catalog entry checks", check


def _unit_normal_to_first(gram: np.ndarray) -> np.ndarray:
    """The second vector of the Gram-orthonormalization of (e, f): the unit
    vector orthogonal to the first basis vector in the given metric."""
    v = np.array([-gram[0, 1] / gram[0, 0], 1.0])
    return v / np.sqrt(v @ gram @ v)


def _check_e1_exact(rec, title, rng, tol, seed, exact):
    a = Fraction(3, 2)
    u = get("e1", a=a, exact=True).ela.unimodular_vector(tol)
    rec.add(title, f"(0, {-a})", f"({u[0]}, {u[1]})",
            la.is_exact(u) and u[0] == 0 and u[1] == -a)


def _check_e1_characters(rec, title, rng, tol, seed, exact):
    e1, line = get("e1", a=1.3).ela, get("abelian", n=1).ela
    ok_b, ok_h = True, False
    for _ in range(5):
        flags = classify(LieAlgebraMap(e1, line, np.array([[0.0, rng.normal()]])), tol).flags
        ok_b &= flags["biharmonic"]
        ok_h |= flags["harmonic"]
    rec.add(title, "biharmonic=True harmonic=False",
            f"biharmonic={ok_b} harmonic={ok_h}", ok_b and not ok_h)


def _check_e1_factor_maps(rec, title, rng, tol, seed, exact):
    """Factor maps e -> 0, f -> q f' between 2-dim non-abelian algebras:
    biharmonic, not harmonic."""
    ok = True
    for _ in range(5):
        src = get("e1", a=rng.uniform(0.5, 2.0)).ela
        g2 = _random_gram(rng, 2)
        tgt = get("e1", a=rng.uniform(0.5, 2.0), gram=g2).ela
        xi = np.zeros((2, 2))
        xi[:, 1] = rng.uniform(0.5, 2.0) * _unit_normal_to_first(g2)
        flags = classify(LieAlgebraMap(src, tgt, xi), tol).flags
        ok &= flags["biharmonic"] and not flags["harmonic"]
    rec.equal(title, True, ok)


def _check_e1_no_parallel_vector(rec, title, rng, tol, seed, exact):
    ok = True
    for _ in range(5):
        ela = get("e1", a=rng.uniform(0.5, 2.0), gram=_random_gram(rng, 2)).ela
        stacked = ela.levi_civita().table.transpose(0, 2, 1).reshape(-1, ela.dim)
        ok &= la.rank(stacked, tol) == ela.dim
    rec.equal(title, True, ok)


def _check_ricci_form(rec, title, rng, tol, seed, exact):
    worst = 0.0
    for ela in (get("e1").ela, get("e2flat").ela, get("so3", alphas=(1.0, 2.0, 3.0)).ela):
        der = ela.alg.derived_subspace()
        comp = la.nullspace(der.T @ ela.gram, tol) if der.shape[1] else np.eye(ela.dim)
        for _ in range(4):
            if comp.shape[1] == 0:
                continue
            u = comp @ rng.normal(size=comp.shape[1])
            lhs = u @ ela.gram @ (ela.ricci_operator() @ u)
            s = ela.ad(u) + ela.ad_star(u)
            rhs = -0.25 * np.trace(s @ s)
            worst = max(worst, abs(lhs - rhs) / (1.0 + abs(rhs)))
    rec.small(title, worst, 1e-8)


def _harmonic_iff_biharmonic(rec, title, maps, tol):
    """One row: every map of ``maps`` is harmonic exactly when biharmonic."""
    ok = True
    for m in maps:
        flags = classify(m, tol).flags
        ok &= flags["harmonic"] == flags["biharmonic"]
    rec.equal(title, True, ok)


def _check_nonpositive_target(rec, title, rng, tol, seed, exact):
    heis = get("heis3").ela
    e1 = get("e1", a=1.0, gram=_random_gram(rng, 2)).ela

    def maps():
        for _ in range(10):
            w = rng.normal(size=2)
            xi = np.zeros((2, 3))
            xi[:, 1] = rng.normal() * w
            xi[:, 2] = rng.normal() * w
            yield LieAlgebraMap(heis, e1, xi)

    _harmonic_iff_biharmonic(rec, title, maps(), tol)


def _check_nilpotent_target(rec, title, rng, tol, seed, exact):
    def maps():
        for _ in range(10):
            src = get("heis3", gram=_random_gram(rng, 3)).ela
            tgt = get("heis3", gram=_random_gram(rng, 3)).ela
            yield LieAlgebraMap(src, tgt, exp_adjoint(src, rng.normal(size=3), tol).matrix)

    _harmonic_iff_biharmonic(rec, title, maps(), tol)


def _vanishing_target(rec, label, maps, tol):
    """Two rows named after ``label``: over ``maps``, whose target forces
    biharmonicity, the bitension vanishes, and so does the tension (every
    source here is unimodular)."""
    worst_t2 = worst_t = 0.0
    for m in maps:
        worst_t2 = max(worst_t2, la.norm(bitension(m, tol)))
        worst_t = max(worst_t, la.norm(tension(m, tol)))
    rec.small(f"{label}: bitension vanishes", worst_t2, 1e-8)
    rec.small(f"{label}, unimodular source: tension vanishes", worst_t, 1e-8)


def _check_biinvariant_target(rec, title, rng, tol, seed, exact):
    round_so3, line = get("so3").ela, get("abelian", n=1).ela

    def maps():
        for _ in range(5):
            yield LieAlgebraMap(line, round_so3, rng.normal(size=(3, 1)))
            src = get("so3", alphas=tuple(rng.uniform(0.5, 2.0, size=3))).ela
            yield LieAlgebraMap(src, round_so3, exp_adjoint(src, rng.normal(size=3), tol).matrix)

    _vanishing_target(rec, "bi-invariant target", maps(), tol)


def _check_abelian_target(rec, title, rng, tol, seed, exact):
    ab2 = get("abelian", n=2, gram=_random_gram(rng, 2)).ela
    heis = get("heis3", gram=_random_gram(rng, 3)).ela

    def maps():
        for _ in range(5):
            xi = rng.normal(size=(2, 3))
            xi[:, 0] = 0.0          # kill the derived direction (z first)
            yield LieAlgebraMap(heis, ab2, xi)

    _vanishing_target(rec, "abelian target", maps(), tol)


def _check_nilp5_minimal(rec, title, rng, tol, seed, exact):
    basis = np.eye(5)[:, get("nilp5").expected["minimal_subalgebra"]]
    worst = 0.0
    for _ in range(5):
        sub = Subalgebra(get("nilp5", gram=_random_gram(rng, 5)).ela, basis, tol)
        worst = max(worst, la.norm(second_fundamental(sub, tol)[1]))
    rec.small(title, worst, 1e-8)


def _check_heis_conjugation(rec, title, rng, tol, seed, exact):
    heis = get("heis3").ela
    ok = True
    for _ in range(50):
        u = rng.normal(size=3) * np.array([1.0, rng.integers(0, 2),
                                           rng.integers(0, 2)])
        adj = exp_adjoint(heis, u, tol)
        form = automorphism_trace_form(adj, tol)
        central = _negligible(heis.ad(u), tol, lambda: la.norm(u))
        ok &= _negligible(form, tol) == central
    rec.equal(title, True, ok)


def _check_sl2_residuals(rec, title, rng, tol, seed, exact):
    ok = True
    for _ in range(10):
        m = rng.normal(size=(2, 2))
        det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
        if abs(det) < 0.1:
            continue
        m = m / np.sqrt(abs(det))
        if det < 0:
            m[:, 0] = -m[:, 0]
        entries = (m[0, 0], m[0, 1], m[1, 0], m[1, 1])
        alphas = tuple(rng.uniform(0.2, 5.0, size=3))
        ent = get("sl2", alphas=alphas)
        res = sl2_residuals(entries, alphas, tol)
        form = automorphism_trace_form(Automorphism(ent.ela, sl2_adjoint_matrix(entries)), tol)
        ok &= np.allclose(res, form, atol=1e-8 * (1 + la.norm(form)))
    rec.equal(title, True, ok)


def _check_tangent_data(rec, title, rng, tol, seed, exact):
    for base, unimod in (("heis3", True), ("e1", False)):
        entry = get("tangent", base=base)
        proj = entry.extras["projection"]
        tau = tension(proj, tol)
        rec.close(f"tangent({base}): projection tension equals minus the "
                  f"base unimodularity vector",
                  entry.expected["projection_tension"], tau, 1e-9)
        cls = classify(proj, tol)
        rec.equal(f"tangent({base}): biharmonic exactly when the base is "
                  f"unimodular", unimod, cls.flags["biharmonic"])


def _check_splitting_identity(rec, title, rng, tol, seed, exact):
    for _ in range(3):
        ker = get("heis3", gram=_random_gram(rng, 3)).ela
        base = get("e1", a=rng.uniform(0.5, 2.0)).ela.alg
        sd = sm.inner_action_data(
            ker, base, InnerProduct.of(_random_gram(rng, 2)),
            InnerProduct.of(_random_gram(rng, 2)), rng.normal(size=(3, 2)),
            tol=tol)
        sm.build_semidirect(sd, tol)   # raises if the identity fails
    rec.equal(title, True, True)


def _check_composed_submersion(rec, title, rng, tol, seed, exact):
    total1, proj1 = sm.build_semidirect(sm.tangent_semidirect(get("e1", a=1.1).ela), tol)
    _, proj2 = sm.build_semidirect(sm.tangent_semidirect(total1), tol)
    rec.small(title, check_composition(proj1, proj2, tol), 1e-8)


def _check_harmonic_recipe(rec, title, rng, tol, seed, exact):
    e1 = get("e1").ela
    ok = True
    for k in range(3):
        res = sm.build_harmonic_submersion(
            e1.alg, e1.inner, InnerProduct.of(_random_gram(rng, 2)),
            get("aff2solv", gram=_random_gram(rng, 3)).ela,
            budget=10, seed=seed + k, tol=tol)
        ok &= res.classification.flags["harmonic"]
    rec.equal(title, True, ok)


def _check_flat_target_recipe(rec, title, rng, tol, seed, exact):
    flat = get("e2flat").ela
    res = sm.build_flat_target_submersion(
        flat, get("aff2solv").ela, budget=20, seed=seed, tol=tol)
    flags = res.classification.flags
    rec.add(title, "biharmonic=True", f"biharmonic={flags['biharmonic']} "
            f"harmonic={flags['harmonic']}", flags["biharmonic"])


def _check_kahler_self_map(rec, title, rng, tol, seed, exact):
    e1 = get("e1", a=1.0).ela
    ok = check_kahler(KahlerStructure(e1, np.array([[0.0, -1.0], [1.0, 0.0]])), tol)
    harmonic = classify(LieAlgebraMap.identity(e1, e1), tol).flags["harmonic"]
    rec.equal(title, True, ok and harmonic)


#: The suite, in report order: ``(title, check)`` pairs.  Each check is
#: called as ``check(rec, title, rng, tol, seed, exact)`` and records a
#: single row under ``title``, or several rows under names of its own.
#: Every check draws from one shared generator, so the order fixes the
#: samples; a check that raises is reported as one failed entry under its
#: title.
_CHECKS: Tuple[Tuple[str, Callable], ...] = (
    _catalog_entry("e1"),
    _catalog_entry("heis3"),
    _catalog_entry("sl2"),
    _catalog_entry("so3"),
    _catalog_entry("so3", "so3(1, 1, 2)", alphas=(1.0, 1.0, 2.0)),
    _catalog_entry("so3", "so3(1, 2, 3)", alphas=(1.0, 2.0, 3.0)),
    _catalog_entry("nilp5"),
    _catalog_entry("abelian", n=3),
    _catalog_entry("e2flat"),
    _catalog_entry("aff2solv"),
    ("e1 exact mode: metric dual of the bracket trace is -a f", _check_e1_exact),
    ("e1 characters: biharmonic yet not harmonic", _check_e1_characters),
    ("factor maps between 2-dim non-abelian algebras: biharmonic, not harmonic",
     _check_e1_factor_maps),
    ("2-dim non-abelian: no nonzero parallel vector", _check_e1_no_parallel_vector),
    ("Ricci form equals -tr((ad_u + ad_u*)^2)/4 off the derived subspace", _check_ricci_form),
    ("unimodular source, non-positively-curved 2-dim target: harmonic iff biharmonic",
     _check_nonpositive_target),
    ("unimodular source, 2-step-nilpotent target: harmonic iff biharmonic",
     _check_nilpotent_target),
    ("bi-invariant target checks", _check_biinvariant_target),
    ("abelian target checks", _check_abelian_target),
    ("nilp5 codimension-one subalgebra: mean curvature vanishes", _check_nilp5_minimal),
    ("2-step nilpotent: conjugation covector vanishes iff the exponent is central",
     _check_heis_conjugation),
    ("split-simple residuals equal the conjugation covector components", _check_sl2_residuals),
    ("tangent-group data checks", _check_tangent_data),
    ("constructed submersions satisfy tau(proj) = tau(Id) - H_rho", _check_splitting_identity),
    ("tension of a composed submersion splits along the factors", _check_composed_submersion),
    ("harmonic-submersion recipe: certified harmonic", _check_harmonic_recipe),
    ("flat-target recipe: certified biharmonic", _check_flat_target_recipe),
    ("Kahler structure validates; holomorphic self-map is harmonic", _check_kahler_self_map),
)


def run_verification_suite(tol: Tolerance = DEFAULT_TOL, seed: int = 0,
                           exact: bool = False) -> SuiteReport:
    """Recompute every stored catalog quantity plus the cross-module
    identities, returning a machine-readable pass/fail report.  With
    ``exact`` the catalog entries are built in exact rational arithmetic;
    the other checks run in float mode either way.  Failures are report
    entries, never exceptions."""
    rec = _Recorder()
    rng = np.random.default_rng(seed)
    for title, check in _CHECKS:
        try:
            check(rec, title, rng, tol, seed, exact)
        except Exception as exc:  # a crash is itself a failed check
            rec.add(title, "no exception", f"{exc!r} at {_crash_site(exc)}", False)
    return SuiteReport(checks=tuple(rec.checks))
