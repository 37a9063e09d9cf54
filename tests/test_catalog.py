"""Built-in algebra library and its self-verification suite."""
import hashlib
import inspect
import json
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import lieharm.catalog as catalog_module
from lieharm import (
    CatalogError,
    classify,
    get,
    names,
    run_verification_suite,
    tension,
)

from lieharm._linalg import DEFAULT_TOL

from conftest import rand_pd, with_metric

#: title and generator-state digest after each suite check, seed 0
RNG_PINS = Path(__file__).parent / "data" / "suite_rng_seed0.json"


def call_site(func, call: str) -> str:
    """The crash site the suite reports for an exception raised by the
    first line of ``func`` that contains ``call``."""
    lines, first = inspect.getsourcelines(func)
    offset = next(i for i, line in enumerate(lines) if call in line)
    return f"lieharm/catalog.py:{first + offset} in {func.__name__}"


def test_names_lists_every_entry():
    got = set(names())
    assert {"e1", "heis3", "so3", "sl2", "nilp5", "abelian", "e2flat",
            "aff2solv", "tangent"} <= got


def test_unknown_entry_raises():
    with pytest.raises(CatalogError):
        get("nosuch")


def test_entry_parameters_feed_through():
    e = get("e1", a=2.5)
    assert np.allclose(np.asarray(e.ela.bracket([1, 0], [0, 1]), float),
                       [2.5, 0.0])
    h = get("heis3", alpha=0.7)
    assert np.allclose(np.asarray(h.ela.bracket([0, 1, 0], [0, 0, 1]), float),
                       [0.7, 0.0, 0.0])
    s = get("so3", alphas=(2.0, 2.0, 2.0))
    assert np.allclose(np.asarray(s.ela.gram, float), 2.0 * np.eye(3))
    a = get("abelian", n=4)
    assert a.ela.dim == 4 and a.expected["kill_dim"] == 4


def test_expected_values_match_measurements(rng):
    for name in ("e1", "heis3", "so3", "nilp5", "abelian", "e2flat",
                 "aff2solv", "sl2"):
        entry = get(name)
        ela = entry.ela
        assert ela.is_unimodular() == entry.expected["unimodular"]
        cov = np.asarray(ela.gram, float) @ np.asarray(
            ela.unimodular_vector(), float)
        assert np.allclose(cov, np.asarray(entry.expected["u_covector"],
                                           dtype=float), atol=1e-10)
        if "kill_dim" in entry.expected:
            assert ela.killing_subalgebra().shape[1] == entry.expected["kill_dim"]


def test_rejected_parameters():
    with pytest.raises(CatalogError):
        get("aff2solv", beta=-1.0)  # degenerates to an abelian direction sum
    with pytest.raises(CatalogError):
        get("abelian", n=0)
    with pytest.raises(CatalogError):
        get("e2flat", lam=-2.0)


NAN, INF = float("nan"), float("inf")

#: parameters each builder refuses: NaN, infinities, and diagonals of other lengths
REFUSED_PARAMETERS = [
    ("e1", {"a": NAN}), ("e1", {"a": INF}), ("e1", {"a": -INF}), ("e1", {"a": NAN, "exact": True}),
    ("heis3", {"alpha": NAN}), ("heis3", {"alpha": INF}),
    ("e2flat", {"lam": NAN}), ("e2flat", {"lam": INF}),
    ("aff2solv", {"beta": NAN}), ("aff2solv", {"beta": -INF}),
    ("so3", {"alphas": (1, INF, 1)}), ("sl2", {"alphas": (1, NAN, 1)}),
    ("so3", {"alphas": (1, 2)}), ("sl2", {"alphas": (1, 2)}),
    ("so3", {"alphas": (1, 2, 3, 4)}), ("sl2", {"alphas": (1, 2, 3, 4)}),
    ("tangent", {"base": "e1", "a": INF}),
]


@pytest.mark.parametrize("name, params", REFUSED_PARAMETERS)
def test_non_finite_and_missized_parameters_are_refused(name, params):
    with pytest.raises(CatalogError, match="finite|three values"):
        get(name, **params)


#: per builder: (parameters of the non-default metric, algebra name, expected
#: keys in print order with the default metric, the keys left with the
#: non-default metric, extras with the non-default metric); the non-default
#: metric is 2 I, given as a Gram matrix or as the diagonal ``alphas``
ENTRY_SHAPES = {
    "e1": ({"gram": "2I"}, "e1", ["unimodular", "kill_dim", "u_covector", "ch_dim"],
           ["unimodular", "kill_dim", "u_covector"], {}),
    "heis3": ({"gram": "2I"}, "heis3", ["unimodular", "u_covector", "kill_dim", "ch_dim"],
              ["unimodular", "u_covector"], {}),
    "sl2": ({"alphas": (2, 2, 2)}, "sl2", ["unimodular", "u_covector", "kill_dim", "ch_dim"],
            ["unimodular", "u_covector", "kill_dim", "ch_dim"], {"alphas": (2, 2, 2)}),
    "so3": ({"alphas": (2, 2, 2)}, "so3",
            ["unimodular", "u_covector", "kill_dim", "ch_dim", "biinvariant"],
            ["unimodular", "u_covector", "kill_dim", "ch_dim", "biinvariant"],
            {"alphas": (2, 2, 2)}),
    "nilp5": ({"gram": "2I"}, "nilp5",
              ["unimodular", "u_covector", "minimal_subalgebra", "kill_dim", "ch_dim"],
              ["unimodular", "u_covector", "minimal_subalgebra"], {}),
    "abelian": ({"gram": "2I"}, "abelian3",
                ["unimodular", "u_covector", "kill_dim", "ch_dim", "biinvariant"],
                ["unimodular", "u_covector", "kill_dim", "ch_dim", "biinvariant"], {}),
    "e2flat": ({"gram": "2I"}, "e2flat",
               ["unimodular", "u_covector", "kill_dim", "ch_dim", "flat"],
               ["unimodular", "u_covector"], {}),
    "aff2solv": ({"gram": "2I"}, "aff2solv", ["unimodular", "u_covector", "kill_dim"],
                 ["unimodular", "u_covector"], {}),
}


@pytest.mark.parametrize("exact", [False, True])
@pytest.mark.parametrize("name", sorted(ENTRY_SHAPES))
def test_entry_shapes_with_default_and_other_metric(name, exact):
    """Every parametrized builder: the expected keys in the order
    ``lieharm catalog NAME`` prints them, the keys that hold only for the
    default metric, the entry and algebra names, and the extras."""
    other, alg_name, default_keys, other_keys, other_extras = ENTRY_SHAPES[name]
    default = get(name, exact=exact)
    dim = default.ela.dim
    params = {k: (2 * np.eye(dim, dtype=int)).tolist() if v == "2I" else v
              for k, v in other.items()}
    changed = get(name, exact=exact, **params)
    for entry in (default, changed):
        assert (entry.name, entry.ela.name, entry.ela.alg.name) == (name, alg_name, alg_name)
        assert entry.ela.exact == exact
    assert list(default.expected) == default_keys
    assert list(changed.expected) == other_keys
    assert default.extras == ({"alphas": (1.0, 1.0, 1.0)} if other_extras else {})
    assert changed.extras == other_extras
    assert np.array_equal(changed.ela.gram, 2 * np.eye(dim))
    assert {k: default.expected[k] for k in other_keys} == changed.expected


@pytest.mark.parametrize("n", [2.7, 2.0, "2", True])
def test_abelian_dimension_must_be_an_integer(n):
    with pytest.raises(CatalogError, match="must be an integer"):
        get("abelian", n=n)
    assert get("abelian", n=np.int64(2)).ela.name == "abelian2"


def test_exact_entries():
    e = get("e1", a=Fraction(3, 2), exact=True)
    assert e.ela.exact
    u = e.ela.unimodular_vector()
    assert list(u) == [Fraction(0), Fraction(-3, 2)]


def test_tangent_entry_carries_construction(rng):
    entry = get("tangent", base="e1")
    assert entry.ela.dim == 4
    proj = entry.extras["projection"]
    base = entry.extras["base"]
    tau = np.asarray(tension(proj), float)
    assert np.allclose(tau, -np.asarray(base.unimodular_vector(), float),
                       atol=1e-10)
    flags = classify(proj).flags
    assert not flags["biharmonic"]  # the 2-dim base is not unimodular

    entry2 = get("tangent", base="heis3")
    assert entry2.ela.dim == 6
    flags2 = classify(entry2.extras["projection"]).flags
    assert flags2["harmonic"] and flags2["biharmonic"]


def test_e1_operator_stack_equals_the_basis_loop(rng):
    """The stacked Levi-Civita operators of the e1 parallel-vector check, read
    off the table, are bit-identical to stacking ``operator(e_i)`` per basis."""
    for _ in range(20):
        ela = get("e1", a=rng.uniform(0.5, 2.0), gram=rand_pd(rng, 2)).ela
        lc = ela.levi_civita()
        loop = np.vstack([np.asarray(lc.operator(ela.basis(i)), dtype=float) for i in range(2)])
        assert np.array_equal(lc.table.transpose(0, 2, 1).reshape(-1, 2), loop)


def test_verification_suite_is_green():
    report = run_verification_suite(seed=7)
    failures = [c for c in report.checks if not c.passed]
    assert report.passed, f"failures: {[c.name for c in failures]}"
    assert len(report.checks) >= 80


def test_verification_suite_serializes():
    report = run_verification_suite(seed=1)
    doc = report.to_dict()
    assert doc["passed"] is True
    assert len(doc["checks"]) == len(report.checks)
    sample = doc["checks"][0]
    assert {"name", "expected", "measured", "passed"} <= set(sample)


def test_verification_suite_names_are_unique():
    names_seen = [c.name for c in run_verification_suite(seed=0).checks]
    duplicates = sorted({n for n in names_seen if names_seen.count(n) > 1})
    assert not duplicates, duplicates
    assert "so3(1, 1, 2): harmonic-cone dimension" in names_seen
    assert "so3(1, 2, 3): harmonic-cone dimension" in names_seen


def test_verification_suite_isolates_a_crashing_check(monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("composition check broke")

    monkeypatch.setattr(catalog_module, "check_composition", broken)
    report = run_verification_suite(seed=0)
    failures = report.failures
    assert len(failures) == 1
    (failure,) = failures
    assert failure.name == ("tension of a composed submersion splits along "
                            "the factors")
    assert failure.expected == "no exception"
    site = call_site(catalog_module._check_composed_submersion, "check_composition(")
    assert failure.measured == f"{RuntimeError('composition check broke')!r} at {site}"
    assert all(c.passed for c in report.checks if c is not failure)


def test_verification_suite_reports_an_entry_that_fails_to_build(monkeypatch):
    real_get = catalog_module.get

    def get_failing_nilp5(name, **params):
        if name == "nilp5":
            raise CatalogError("nilp5 is unavailable")
        return real_get(name, **params)

    monkeypatch.setattr(catalog_module, "get", get_failing_nilp5)
    report = run_verification_suite(seed=0)
    assert not report.passed
    failed = {c.name: c for c in report.failures}
    assert set(failed) == {
        "nilp5: catalog entry checks",
        "nilp5 codimension-one subalgebra: mean curvature vanishes",
    }
    error = repr(CatalogError("nilp5 is unavailable"))
    entry_check = catalog_module._catalog_entry("nilp5")[1]
    assert failed["nilp5: catalog entry checks"].measured == (
        f"{error} at {call_site(entry_check, 'get(name')}")
    assert failed["nilp5 codimension-one subalgebra: mean curvature vanishes"].measured == (
        f"{error} at {call_site(catalog_module._check_nilp5_minimal, 'get(')}")


def test_rounding_noise_prints_as_zero():
    """Values at most 1e-6 of ``atol`` print as zero, so two summation orders
    of the same vanishing quantity give the same report line."""
    lines = []
    for noise in (1.951e-16, 2.079e-16, 0.0):
        rec = catalog_module._Recorder()
        rec.small("mean curvature vanishes", noise, 1e-8)
        lines.append(rec.checks[0].to_dict())
    assert lines[0] == lines[1] == lines[2]
    assert lines[0]["measured"] == "0.000e+00" and lines[0]["passed"]
    rec = catalog_module._Recorder()
    rec.small("above the floor", 1.5e-14, 1e-8)
    rec.small("above atol", 2e-8, 1e-8)
    assert [c.measured for c in rec.checks] == ["1.500e-14", "2.000e-08"]
    assert [c.passed for c in rec.checks] == [True, False]


def _suite_by_check(seed: int):
    """Run the suite's checks in order on one generator, as
    ``run_verification_suite`` does: per check its title, its rows and a
    digest of the generator state after it."""
    rng = np.random.default_rng(seed)
    out = []
    for title, check in catalog_module._CHECKS:
        rec = catalog_module._Recorder()
        check(rec, title, rng, DEFAULT_TOL, seed, False)
        state = json.dumps(rng.bit_generator.state, sort_keys=True).encode()
        out.append((title, rec.checks, hashlib.sha256(state).hexdigest()[:16]))
    return out


@pytest.fixture(scope="module")
def seed0_suite():
    return _suite_by_check(0)


@pytest.mark.parametrize("index", range(len(catalog_module._CHECKS)))
def test_suite_check_passes_and_draws_in_the_pinned_order(seed0_suite, index):
    """The report does not show its samples (seeds 0-2 print the same
    bytes), so each check's draws are pinned by the generator state after
    it."""
    pins = json.loads(RNG_PINS.read_text())
    assert len(pins) == len(seed0_suite)
    title, rows, digest = seed0_suite[index]
    assert pins[index] == {"title": title, "rng_digest": digest}
    assert rows and all(row.passed for row in rows)
