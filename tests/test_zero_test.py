"""One zero test for every yes/no predicate: exact data decide by exact zero.

Each predicate and validation site hands its residual to ``core._negligible``.
An exact residual counts as zero only when it is zero, so a perturbation by
``Fraction(1, 10**k)`` flips every exact verdict, however small; float
verdicts keep their tolerance, so the same perturbation of float data by
``1e-12`` is accepted.  Rank and equality decisions likewise take the data
as given: exact elimination on exact data, the float rank on float data.
Outside the decision layer no kernel branches on the scalar mode.
"""
import ast
import functools
import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import lieharm
import lieharm._linalg as la
from lieharm import (
    Automorphism,
    CatalogError,
    ConeError,
    ConstructionError,
    EuclideanLieAlgebra,
    InnerProduct,
    KahlerStructure,
    LieAlgebra,
    LieAlgebraMap,
    MapError,
    MetricError,
    SemidirectData,
    StructureError,
    Subalgebra,
    build_semidirect,
    check_condition,
    check_jacobi,
    check_kahler,
    classify,
    compose,
    cone_membership,
    get,
    harmonic_cone,
    harmonic_dimension_check,
    inner_action_data,
    is_holomorphic,
    is_riemannian_immersion,
    is_riemannian_submersion,
    quotient_metric,
    require_hom,
    sl2_residuals,
    tangent_semidirect,
    tension_coordinate_system,
    validate_hom,
)
from lieharm.io import algebra_from_doc, algebra_to_doc, semidirect_from_doc, semidirect_to_doc
from lieharm.maps import submersion_split


def _mat(rows, eps):
    return la.as_matrix(rows, isinstance(eps, Fraction))


@functools.lru_cache(maxsize=None)
def _entry(name, exact, **params):
    return get(name, exact=exact, **params).ela


def _heis(eps, gram=None):
    exact = isinstance(eps, Fraction)
    return _entry("heis3", exact) if gram is None else get("heis3", exact=exact, gram=gram).ela


def _line(eps):
    return _entry("abelian", isinstance(eps, Fraction), n=1)


def _e1(eps):
    return _entry("e1", isinstance(eps, Fraction))


def _accepts(call, error, match):
    """False when ``call()`` raises ``error`` with a message matching
    ``match`` (the site under test refused), True when it returns."""
    try:
        call()
    except error as exc:
        if not re.search(match, str(exc)):
            raise
        return False
    return True


def _tangent_heis(eps):
    sd = tangent_semidirect(_heis(eps))
    rho = sd.rho.copy()
    rho[0, 0, 1] += eps
    return SemidirectData(sd.kernel, sd.base, sd.inner_domain, sd.inner_target, rho, sd.omega)


def _jacobi(eps):
    c = _heis(eps).alg.c.copy()
    c[0, 1, 1], c[1, 0, 1] = eps, -eps         # [z, f] = eps f breaks Jacobi
    return check_jacobi(LieAlgebra.from_tensor(c, exact=isinstance(eps, Fraction),
                                               validate=False))


def _antisymmetry(eps):
    c = _heis(eps).alg.c.copy()
    c[2, 1, 0] += eps
    return _accepts(lambda: LieAlgebra.from_tensor(c, exact=isinstance(eps, Fraction)),
                    StructureError, "not antisymmetric")


def _unimodular(eps):
    c = _heis(eps).alg.c.copy()
    c[0, 1, 1], c[1, 0, 1] = eps, -eps         # tr ad_z = eps
    return EuclideanLieAlgebra(LieAlgebra(c), _heis(eps).inner).is_unimodular()


def _closure(eps):
    basis = _mat([[0, 1], [1, 0], [0, eps]], eps)     # f, z + eps g
    return _accepts(lambda: Subalgebra(_heis(eps), basis), StructureError, "not closed")


def _ideal(eps):
    heis = _heis(eps)
    sub = Subalgebra(heis, _mat([[1], [eps], [0]], eps))  # z + eps f
    return _accepts(lambda: quotient_metric(heis, sub), StructureError, "not an ideal")


def _near_character(eps):
    return LieAlgebraMap(_heis(eps), _line(eps), _mat([[eps, 1, 0]], eps))


def _factor_map(eps):
    """e -> 0, f -> f + eps e on the plane algebra: a homomorphism, biharmonic
    exactly at eps = 0, never harmonic."""
    e1 = _e1(eps)
    return LieAlgebraMap(e1, e1, _mat([[0, eps], [0, 1]], eps))


def _plane_character(eps):
    """The character onto the line of the plane algebra [e, f] = eps e."""
    exact = isinstance(eps, Fraction)
    alg = LieAlgebra.from_brackets(2, {(0, 1): [eps, 0]}, exact=exact)
    plane = EuclideanLieAlgebra(alg, InnerProduct.identity(2, exact))
    return LieAlgebraMap(plane, _line(eps), _mat([[0, 1]], eps))


def _identity_to(eps):
    """The identity of heis3 onto the metric diag(1, 1, 1 + eps)."""
    target = _heis(eps, gram=_mat(np.diag([1, 1, 1 + eps]), eps))
    return LieAlgebraMap(_heis(eps), target, la.eye(3, isinstance(eps, Fraction)))


def _compose(eps):
    first, second = _identity_to(0 * eps), _identity_to(eps)
    return _accepts(lambda: compose(LieAlgebraMap.identity(second.target), first), MapError,
                    "middle Euclidean algebras differ")


def _complex_structure(eps):
    return _mat([[0, -1 + eps], [1, 0]], eps)


def _kahler(eps):
    e1 = _e1(eps)
    return check_kahler(KahlerStructure(e1, _complex_structure(eps)))


def _holomorphic(eps):
    e1 = _e1(eps)
    return is_holomorphic(LieAlgebraMap.identity(e1), _complex_structure(0 * eps),
                          _complex_structure(eps))


def _twist_antisymmetry(eps):
    sd = tangent_semidirect(_e1(eps))
    omega = sd.omega.copy()
    omega[0, 1, 0] += eps
    return _accepts(lambda: SemidirectData(sd.kernel, sd.base, sd.inner_domain,
                                           sd.inner_target, sd.rho, omega), ConstructionError,
                    "twist is not antisymmetric")


def _derivation(eps):
    exact = isinstance(eps, Fraction)
    point = LieAlgebra(la.zeros((1, 1, 1), exact))
    rho = _mat([np.diag([eps, 0, 0])], eps)            # z -> eps z is no derivation
    one = InnerProduct.identity(1, exact)
    return _accepts(lambda: SemidirectData(_heis(eps), point, one, one, rho,
                                           la.zeros((1, 1, 3), exact)), ConstructionError,
                    "not a derivation")


def _central_twist(eps, entries, match):
    """Inner action of a 3-dim base with [h0, h1] = h1, [h0, h2] = h2 on
    heis3, F = 0, with the twist ``omega0[i, j] = value`` for each entry."""
    exact = isinstance(eps, Fraction)
    base = LieAlgebra.from_brackets(3, {(0, 1): [0, 1, 0], (0, 2): [0, 0, 1]}, exact=exact)
    om0 = la.zeros((3, 3, 3), exact)
    for (i, j), value in entries.items():
        om0[i, j] = _mat(value, eps)
    one = InnerProduct.identity(3, exact)
    return _accepts(lambda: inner_action_data(_heis(eps), base, one, one, la.zeros((3, 3), exact),
                                              omega0=om0), ConstructionError, match)


def _coordinate_system(eps):
    exact = isinstance(eps, Fraction)
    e1 = get("e1", exact=exact).ela
    moved = LieAlgebra(e1.alg.c + _mat([[[0, 0], [0, 0]], [[eps, 0], [0, 0]]], eps))
    other = EuclideanLieAlgebra(moved, e1.inner)
    return _accepts(lambda: tension_coordinate_system(e1, other), ConstructionError,
                    "share the structure constants")


def _automorphism(eps):
    heis = _heis(eps)
    phi = _mat(np.diag([1 + eps, 1, 1]), eps)
    return _accepts(lambda: Automorphism(heis, phi).validate(), ConeError,
                    "preserve the bracket")


def _sl2_det(eps):
    one = Fraction(1) if isinstance(eps, Fraction) else 1.0
    return _accepts(lambda: sl2_residuals((one + eps, 0 * one, 0 * one, one), (1, 2, 3)),
                    ConeError, "determinant")


def _cone_symmetry(eps):
    j = _mat([[1, eps, 0], [0, 1, 0], [0, 0, 1]], eps)
    return _accepts(lambda: cone_membership(_heis(eps), j), ConeError, "w.r.t. the metric")


def _cone_trace(eps):
    return cone_membership(_heis(eps), _mat([[1, 0, eps], [0, 1, 0], [eps, 0, 1]], eps))


def _metric_symmetry(eps):
    doc = {"name": "e1", "dim": 2, "brackets": [{"i": 0, "j": 1, "coeffs": [[0, 1]]}],
           "metric": [[1, str(eps) if isinstance(eps, Fraction) else eps], [0, 1]]}
    return _accepts(lambda: algebra_from_doc(doc, exact=isinstance(eps, Fraction)), MetricError,
                    "metric is not symmetric")


def _target_metric_symmetry(eps):
    e1 = {"dim": 2, "brackets": [{"i": 0, "j": 1, "coeffs": [[0, 1]]}]}
    doc = {"kernel": {"dim": 1}, "base": e1, "action": [[[0]], [[0]]],
           "target_metric": [[1, str(eps) if isinstance(eps, Fraction) else eps], [0, 1]]}
    return _accepts(lambda: semidirect_from_doc(doc, exact=isinstance(eps, Fraction)),
                    MetricError, "metric is not symmetric")


def _dependent_basis(eps):
    basis = _mat([[1, 1], [0, eps], [0, 0]], eps)         # z, z + eps f
    return not _accepts(lambda: Subalgebra(_heis(eps), basis), StructureError, "dependent")


def _singular_automorphism(eps):
    phi = _mat(np.diag([eps, 1, eps]), eps)                # an automorphism unless eps = 0
    return not _accepts(lambda: Automorphism(_heis(eps), phi).validate(), ConeError, "singular")


def _not_onto(eps):
    plane = _entry("abelian", isinstance(eps, Fraction), n=2)
    m = LieAlgebraMap(_heis(eps), plane, _mat([[0, eps, 0], [0, 0, 1]], eps))
    return not _accepts(lambda: submersion_split(m), MapError, "surjective")


#: site -> verdict(eps): True when the site finds its quantity zero (it
#: accepts its input, or finds a rank deficient), for a perturbation ``eps``
#: of exactly-zero data
SITES = {
    "check_jacobi": _jacobi,
    "from_tensor antisymmetry": _antisymmetry,
    "is_unimodular": _unimodular,
    "Subalgebra closure": _closure,
    "quotient_metric ideal": _ideal,
    "validate_hom": lambda eps: validate_hom(_near_character(eps)),
    "require_hom": lambda eps: _accepts(lambda: require_hom(_near_character(eps)), MapError,
                                         "not a Lie algebra homomorphism"),
    "classify harmonic": lambda eps: classify(_plane_character(eps)).flags["harmonic"],
    "classify biharmonic": lambda eps: classify(_factor_map(eps)).flags["biharmonic"],
    "is_riemannian_immersion": lambda eps: is_riemannian_immersion(_identity_to(eps)),
    "is_riemannian_submersion": lambda eps: is_riemannian_submersion(_identity_to(eps)),
    "compose": _compose,
    "check_kahler": _kahler,
    "is_holomorphic": _holomorphic,
    "SemidirectData twist": _twist_antisymmetry,
    "SemidirectData derivation": _derivation,
    "check_condition": lambda eps: check_condition(_tangent_heis(eps)).ok,
    "inner_action_data antisymmetry": lambda eps: _central_twist(
        eps, {(0, 1): [1, 0, 0], (1, 0): [-1 + eps, 0, 0]}, "not antisymmetric"),
    "inner_action_data center": lambda eps: _central_twist(
        eps, {(0, 1): [0, eps, 0], (1, 0): [0, -eps, 0]}, "center"),
    "inner_action_data cocycle": lambda eps: _central_twist(
        eps, {(1, 2): [eps, 0, 0], (2, 1): [-eps, 0, 0]}, "cyclic sum"),
    "tension_coordinate_system": _coordinate_system,
    "Automorphism.validate": _automorphism,
    "sl2_residuals determinant": _sl2_det,
    "cone_membership symmetry": _cone_symmetry,
    "cone_membership trace identity": _cone_trace,
    "io metric symmetry": _metric_symmetry,
    "io target metric symmetry": _target_metric_symmetry,
    "Subalgebra independence": _dependent_basis,
    "Automorphism.validate invertibility": _singular_automorphism,
    "submersion_split surjectivity": _not_onto,
}


@pytest.mark.parametrize("k", [6, 12, 30])
@pytest.mark.parametrize("site", sorted(SITES))
def test_an_exact_perturbation_flips_the_site(site, k):
    verdict = SITES[site]
    assert verdict(Fraction(0))
    assert not verdict(Fraction(1, 10 ** k))


@pytest.mark.parametrize("site", sorted(SITES))
def test_a_float_perturbation_under_the_tolerance_is_accepted(site):
    assert SITES[site](0.0) and SITES[site](1e-12)


def test_exact_character_with_a_tiny_bracket_is_not_harmonic():
    e1 = get("e1", a=Fraction(1, 10 ** 12), exact=True).ela
    assert not e1.is_unimodular()
    cls = classify(LieAlgebraMap(e1, _line(Fraction(0)), la.as_matrix([[0, 1]], True)))
    assert list(cls.tension) == [Fraction(1, 10 ** 12)]
    assert not cls.flags["harmonic"] and cls.flags["biharmonic"]


def test_exact_near_homomorphism_is_refused():
    heis = _heis(Fraction(0))
    m = LieAlgebraMap(heis, _line(Fraction(0)), la.as_matrix([[Fraction(1, 10 ** 12), 0, 0]], True))
    assert m.hom_defect() == pytest.approx(1e-12)
    assert not validate_hom(m)
    with pytest.raises(MapError, match="not a Lie algebra homomorphism"):
        classify(m)


def test_exact_incompatible_data_fail_the_condition_not_jacobi():
    sd = _tangent_heis(Fraction(1, 10 ** 12))
    report = check_condition(sd)
    assert not report.ok and report.action_defect == pytest.approx(1e-12)
    with pytest.raises(ConstructionError, match="compatibility equations violated"):
        build_semidirect(sd)


def test_exact_determinant_off_by_ten_to_the_minus_thirty_is_refused():
    entries = (Fraction(1) + Fraction(1, 10 ** 30), Fraction(0), Fraction(0), Fraction(1))
    with pytest.raises(ConeError, match="determinant"):
        sl2_residuals(entries, (Fraction(1), Fraction(2), Fraction(3)))
    one = (Fraction(1), Fraction(0), Fraction(0), Fraction(1))
    assert not np.any(sl2_residuals(one, (Fraction(1), Fraction(2), Fraction(3))))


def test_an_exact_gram_off_the_identity_is_saved_as_a_matrix():
    gram = la.as_matrix(np.diag([1 + Fraction(1, 10 ** 20), 1]), True)
    e1 = get("e1", gram=gram, exact=True).ela
    doc = algebra_to_doc(e1)
    assert doc["metric"] != "identity"
    assert np.array_equal(algebra_from_doc(doc, exact=True).gram, gram)
    assert algebra_to_doc(get("e1", exact=True).ela)["metric"] == "identity"


def test_a_tiny_exact_twist_entry_is_saved():
    tiny = Fraction(1, 10 ** 400)
    sd = tangent_semidirect(_e1(tiny))
    omega = sd.omega.copy()
    omega[0, 1, 0], omega[1, 0, 0] = tiny, -tiny
    sd = SemidirectData(sd.kernel, sd.base, sd.inner_domain, sd.inner_target, sd.rho, omega)
    assert semidirect_to_doc(sd)["twist"] == [{"i": 0, "j": 1, "coeffs": [f"1/{10 ** 400}", 0]}]


def test_exact_catalog_parameters_are_compared_exactly():
    tiny = Fraction(1, 10 ** 400)
    assert get("e1", a=tiny, exact=True).ela.alg.c[0, 1, 0] == tiny
    assert get("heis3", alpha=tiny, exact=True).ela.alg.c[1, 2, 0] == tiny


def test_exact_heis3_beyond_the_float_range_is_decided_exactly():
    """An exact verdict forms no float, so a coefficient of 10**400, which
    no float holds, is decided like any other."""
    ela = get("heis3", alpha=Fraction(10 ** 400), exact=True).ela
    assert check_jacobi(ela.alg) and ela.is_unimodular()
    assert ela.killing_subalgebra().shape[1] == 1
    assert harmonic_cone(ela).dimension == 4
    assert harmonic_dimension_check(ela) == (4, 4)
    _, proj = build_semidirect(tangent_semidirect(ela))
    flags = classify(proj).flags
    assert flags["harmonic"] and flags["biharmonic"]


def test_exact_e1_beyond_the_float_range_is_decided_exactly():
    big = Fraction(10 ** 400)
    ela = get("e1", a=big, exact=True).ela
    assert not ela.is_unimodular()
    assert list(ela.unimodular_vector()) == [0, -big]


#: the functions that may read ``Tolerance.threshold``: the two decision
#: helpers and the float rank, solve and definiteness rules of ``_linalg``
THRESHOLD_READERS = {"_check_cross", "_negligible", "nullspace", "solve_linear",
                     "is_positive_definite"}


def _calls(tree, callee):
    """``(function, line)`` of every call whose callee satisfies ``callee``,
    attributed to the innermost enclosing named function (a lambda belongs
    to its own)."""
    found = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            name = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else func
            if isinstance(child, ast.Call) and callee(child.func):
                found.append((func, child.lineno))
            visit(child, name)

    visit(tree, None)
    return found


def _threshold_calls(tree):
    """``(function, line)`` of every ``.threshold(...)`` call."""
    return _calls(tree, lambda f: isinstance(f, ast.Attribute) and f.attr == "threshold")


def test_only_the_decision_helpers_read_a_threshold():
    """A hand-written zero test cannot come back: outside the two helpers
    and the float rank rules, nothing compares with a threshold."""
    src = Path(lieharm.__file__).parent
    stray = [f"{path.name}:{line} in {func}"
             for path in sorted(src.glob("*.py"))
             for func, line in _threshold_calls(ast.parse(path.read_text()))
             if func not in THRESHOLD_READERS]
    assert stray == []
    assert _threshold_calls(ast.parse("def f(t):\n    return g(lambda: t.threshold(1))\n")) == [
        ("f", 2)]


#: the position of ``scale`` among each decision helper's positional arguments
SCALE_POSITION = {"_negligible": 2, "_check_cross": 4}


def _writes_the_floor(node, assigned) -> bool:
    """Whether a scale is a number or a sum with a number among its terms
    (``1.0 + x``), itself, as a lambda's body (also one that ``_once``
    memoizes) or through a name ``assigned`` from one in the same function."""
    if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_once" and node.args:
        node = node.args[0]                 # the memoized scale's own expression
    if isinstance(node, ast.Lambda):
        node = node.body
    if isinstance(node, ast.Name):
        return any(_writes_the_floor(value, {}) for value in assigned.get(node.id, ()))
    terms = [node]
    while isinstance(terms[-1], ast.BinOp) and isinstance(terms[-1].op, ast.Add):
        sum_ = terms.pop()
        terms += [sum_.right, sum_.left]
    return any(isinstance(t, ast.Constant) and isinstance(t.value, (int, float)) for t in terms)


def _assigned(scope):
    """The values assigned to each plain name anywhere in ``scope``."""
    out = {}
    for node in ast.walk(scope):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    out.setdefault(target.id, []).append(node.value)
    return out


def _hand_written_floors(tree):
    """``(function, line)`` of every decision-helper call, outside the two
    helpers, whose ``scale`` is a number or writes the ``1 +`` floor."""
    found = []

    def visit(node, func, assigned):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name, _assigned(child))
                continue
            f = getattr(child, "func", None)
            helper = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
            if isinstance(child, ast.Call) and helper in SCALE_POSITION and (
                    func not in SCALE_POSITION):
                pos = SCALE_POSITION[helper]
                scales = child.args[pos:pos + 1] + [k.value for k in child.keywords
                                                    if k.arg == "scale"]
                if any(_writes_the_floor(scale, assigned) for scale in scales):
                    found.append((func, child.lineno))
            visit(child, func, assigned)

    visit(tree, None, {})
    return found


def test_no_call_site_writes_the_scale_floor():
    """The ``1 +`` floor of every float scale is added by the two decision
    helpers only: a call site passes the data-dependent part as a callable,
    never a number or a ``1.0 + ...`` sum."""
    src = Path(lieharm.__file__).parent
    stray = [f"{path.name}:{line} in {func}"
             for path in sorted(src.glob("*.py"))
             for func, line in _hand_written_floors(ast.parse(path.read_text()))]
    assert stray == []
    probe = ("def f(x, tol, a, b):\n"
             "    s = 1 + a\n"
             "    _negligible(x, tol, 1.0 + a + b)\n"
             "    core._negligible(x, tol, 0.0, norm=abs)\n"
             "    _check_cross('n', x, 0, tol, s)\n"
             "    _negligible(x, tol, scale=lambda: a + 1.0)\n"
             "    _negligible(x, tol, lambda: a * (1.0 + b) ** 2)\n"
             "    _check_cross('n', x, 0, tol, lambda: a, norm=abs)\n"
             "    _negligible(x, tol)\n"
             "    _check_cross('n', x, 0, tol, _once(lambda: 1.0 + a))\n"
             "    _negligible(x, tol, _once(la.norm, a))\n"
             "def g(x, tol, s):\n"
             "    return _negligible(x, tol, s)\n"
             "def _negligible(value, tol, scale=1.0):\n"
             "    return _negligible(value, tol, 1.0)\n")
    assert _hand_written_floors(ast.parse(probe)) == [("f", 3), ("f", 4), ("f", 5), ("f", 6),
                                                      ("f", 10)]


#: the calls that decide a rank or an equality on the data they are given
DECIDERS = {"rank", "nullspace", "array_equal"}


def _float_copy(node) -> bool:
    """Whether ``node`` is ``float(...)``, ``la.to_float(...)``, ``la.norm(...)``
    or ``np.asarray(..., dtype=float)``."""
    if not isinstance(node, ast.Call):
        return False
    f = node.func
    if isinstance(f, ast.Name):
        return f.id == "float"
    if not (isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name)):
        return False
    if f.value.id == "la":
        return f.attr in ("to_float", "norm")
    return f.value.id == "np" and f.attr == "asarray" and any(
        k.arg == "dtype" and isinstance(k.value, ast.Name) and k.value.id == "float"
        for k in node.keywords)


def _decisions_on_float_copies(tree):
    """Lines of the rank, nullspace and equality calls with a float copy in an
    argument."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
        args = list(node.args) + [k.value for k in node.keywords]
        if name in DECIDERS and any(_float_copy(sub) for a in args for sub in ast.walk(a)):
            found.append(node.lineno)
    return found


def test_no_rank_or_equality_is_decided_on_a_float_copy():
    """Exact data take the exact rank and equality: no decision converts its
    argument to float first (the float kernels of ``_linalg`` are exempt)."""
    src = Path(lieharm.__file__).parent
    stray = [f"{path.name}:{line}"
             for path in sorted(src.glob("*.py")) if path.name != "_linalg.py"
             for line in _decisions_on_float_copies(ast.parse(path.read_text()))]
    assert stray == []
    probe = ("la.rank(la.to_float(m))\nla.nullspace(x.T @ np.asarray(g, dtype=float))\n"
             "np.array_equal(float(a), b)\nla.rank(m)\nnp.asarray(la.rank(m), dtype=float)\n")
    assert _decisions_on_float_copies(ast.parse(probe)) == [1, 2, 3]


def test_exact_so3_parameters_a_hair_apart_are_distinct():
    alphas = (Fraction(1), 1 + Fraction(1, 10 ** 13), Fraction(2))
    entry = get("so3", alphas=alphas, exact=True)
    assert (entry.expected["kill_dim"], entry.expected["ch_dim"]) == (0, 3)
    assert entry.ela.killing_subalgebra().shape[1] == 0
    assert harmonic_cone(entry.ela).dimension == 3
    # the float twin keeps its verdict: 1e-13 apart counts as equal
    twin = get("so3", alphas=(1.0, 1.0 + 1e-13, 2.0))
    assert (twin.expected["kill_dim"], twin.expected["ch_dim"]) == (1, 4)
    assert twin.ela.killing_subalgebra().shape[1] == 1


def test_exact_aff2solv_a_hair_off_the_degeneration_builds():
    entry = get("aff2solv", beta=-1 + Fraction(1, 10 ** 13), exact=True)
    assert entry.expected["u_covector"] == [0, 0, Fraction(1, 10 ** 13)]
    assert not entry.ela.is_unimodular()
    with pytest.raises(CatalogError, match="unimodular degeneration"):
        get("aff2solv", beta=Fraction(-1), exact=True)
    with pytest.raises(CatalogError, match="unimodular degeneration"):
        get("aff2solv", beta=-1 + 1e-13)


_OFF_IDENTITY = [[2, 1, 0], [1, 2, 0], [0, 0, 1]]


@pytest.mark.parametrize("name, params", [(name, {}) for name in lieharm.names()] + [
    ("e1", {"gram": [[2, 1], [1, 1]]}), ("heis3", {"gram": _OFF_IDENTITY}),
    ("so3", {"alphas": (1, 2, 3)}), ("aff2solv", {"beta": Fraction(1, 3), "gram": _OFF_IDENTITY})])
def test_exact_levi_civita_is_metric_compatible_exactly(name, params):
    assert get(name, exact=True, **params).ela.levi_civita().compatibility_defect() == 0.0


def test_inner_product_norm_in_both_modes():
    gram = [[2, 1], [1, 3]]                # |(1, -1)|^2 = 2 - 2 + 3
    exact = InnerProduct.of(gram, exact=True)
    assert exact.norm(la.as_matrix([1, -1], True)) == pytest.approx(3 ** 0.5)
    assert InnerProduct.of(gram).norm([1.0, -1.0]) == pytest.approx(3 ** 0.5)
    heis = get("heis3", gram=_OFF_IDENTITY, exact=True).ela
    assert heis.norm(heis.basis(0)) == pytest.approx(2 ** 0.5)


#: the functions that may branch on the scalar mode, and why the branch stays
MODE_BRANCHES = {
    "_check_cross": "decision helper: exact routes must be equal",
    "_negligible": "decision helper: an exact value is zero only when it is zero",
    "second_fundamental": "the float rule holds each pair to its own scale",
    "quotient_metric": "the metric-orthonormal complement is irrational",
    "_sym_coordinates": "the Frobenius unit 1/sqrt(2) is irrational",
    "parse_scalar": "parses a document in the requested mode",
    "EuclideanLieAlgebra.__init__": "mode-consistency check",
    "LieAlgebraMap.__post_init__": "mode-consistency check",
    "Automorphism.__post_init__": "mode-consistency check",
    "SemidirectData.__post_init__": "mode-consistency check",
}

_MODE_NAMES = {"exact", "is_exact"}


def _reads_mode(test) -> bool:
    return any(isinstance(n, ast.Name) and n.id in _MODE_NAMES
               or isinstance(n, ast.Attribute) and n.attr in _MODE_NAMES
               for n in ast.walk(test))


def _sites(tree, hit):
    """``(function, line)`` of every node for which ``hit`` holds, attributed
    to the innermost enclosing function as ``Class.method`` or ``function``."""
    found = []

    def visit(node, func, cls):
        for child in ast.iter_child_nodes(node):
            if hit(child):
                found.append((func, child.lineno))
            if isinstance(child, ast.ClassDef):
                visit(child, func, child.name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, f"{cls}.{child.name}" if cls else child.name, None)
            else:
                visit(child, func, cls)

    visit(tree, None, None)
    return found


def _mode_branches(tree):
    """The sites of every ``if``, ternary or ``while`` whose test reads the
    scalar mode."""
    return _sites(tree, lambda node: isinstance(node, (ast.If, ast.IfExp, ast.While))
                  and _reads_mode(node.test))


def _library_sites(find):
    """``(module, function, line)`` of ``find``'s sites outside ``_linalg``."""
    src = Path(lieharm.__file__).parent
    return [(path.name, func, line)
            for path in sorted(src.glob("*.py")) if path.name != "_linalg.py"
            for func, line in find(ast.parse(path.read_text()))]


def test_only_the_kept_functions_branch_on_the_scalar_mode():
    """Each kernel has one code path for both scalar modes: outside ``_linalg``
    only the functions of ``MODE_BRANCHES`` test whether data are exact."""
    found = _library_sites(_mode_branches)
    assert [f"{name}:{line} in {func}" for name, func, line in found
            if func not in MODE_BRANCHES] == []
    assert {func for _, func, _ in found} == set(MODE_BRANCHES)    # no stale entry
    probe = ("def f(a, exact):\n    if exact:\n        pass\n    x = 1 if a.exact else 2\n"
             "    while la.is_exact(a):\n        pass\n    return _is_exact_route(a) or x\n"
             "class C:\n    def g(self):\n        return 0 if self.exact else 1\n")
    assert _mode_branches(ast.parse(probe)) == [("f", 2), ("f", 4), ("f", 5), ("C.g", 10)]


#: the functions that may multiply with bare ``@``, ``np.matmul`` or
#: ``np.einsum`` instead of ``la.matmul``, and why
BARE_PRODUCTS = {
    "_jacobi_sums": "integer kernel on numerators; its ``out=`` buffers need ``np.matmul``",
    "LeviCivitaProduct._table": "integer kernel: the Koszul sums on numerators",
    "_cone_constraints": "integer kernel: the trace rows on numerators",
    "_random_gram": "float-only catalog suite helper",
    "_unit_normal_to_first": "float-only catalog suite helper",
    "_check_ricci_form": "float-only catalog suite helper",
    "_trace_rows": "float-only recipe helper",
    "_derived_rows": "float-only recipe helper",
    "_search": "float-only recipe search",
    "build_harmonic_submersion": "float-only recipe",
}


def _is_bare_product(node) -> bool:
    """A ``@`` or ``@=``, or a call of ``np.matmul`` or ``np.einsum``."""
    if isinstance(node, (ast.BinOp, ast.AugAssign)):
        return isinstance(node.op, ast.MatMult)
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr in {"matmul", "einsum"}
            and isinstance(node.func.value, ast.Name) and node.func.value.id == "np")


def test_every_other_product_goes_through_la_matmul():
    """One product layer: outside ``_linalg`` only the integer kernels and the
    float-only helpers of ``BARE_PRODUCTS`` multiply without ``la.matmul``,
    so exact operands never reach Fraction arithmetic in a product."""
    found = _library_sites(lambda tree: _sites(tree, _is_bare_product))
    assert [f"{name}:{line} in {func}" for name, func, line in found
            if func not in BARE_PRODUCTS] == []
    assert {func for _, func, _ in found} == set(BARE_PRODUCTS)    # no stale entry
    probe = ("def f(a, b):\n    a @= b\n    return a @ b, np.matmul(a, b)\n"
             "class C:\n    def g(self, a):\n        return np.einsum('i,i', a, a), la.matmul(a, a)\n")
    assert _sites(ast.parse(probe), _is_bare_product) == [("f", 2), ("f", 3), ("f", 3), ("C.g", 6)]


def _int_calls(tree):
    """``(function, line)`` of every ``int(...)`` call."""
    return _calls(tree, lambda f: isinstance(f, ast.Name) and f.id == "int")


def test_documents_never_truncate_an_index():
    """``int(...)`` turns 1.5 into 1 and True into 1: outside ``format_scalar``,
    which writes exact integers, ``io`` reads every index through ``_index``."""
    tree = ast.parse((Path(lieharm.__file__).parent / "io.py").read_text())
    assert [f"io.py:{line} in {func}" for func, line in _int_calls(tree)
            if func != "format_scalar"] == []
    assert _int_calls(ast.parse("def f(x):\n    return int(x) + g(int)\nint(2)\n")) == [
        ("f", 2), (None, 3)]
