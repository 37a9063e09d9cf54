"""JSON document loading, validation errors, and round-trips."""
import json
from fractions import Fraction

import numpy as np
import pytest

from lieharm import (
    InnerProduct,
    MetricError,
    SpecError,
    StructureError,
    algebra_to_doc,
    get,
    inner_action_data,
    load_algebra,
    load_map,
    load_semidirect,
    map_to_doc,
    save_algebra,
    semidirect_to_doc,
    tension,
)
from lieharm import _linalg as la
from lieharm import io as lio

from conftest import rand_pd, with_metric


def write(tmp_path, name, doc):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


HEIS_DOC = {
    "name": "heis3",
    "dim": 3,
    "brackets": [{"i": 1, "j": 2, "coeffs": [[0, 1.0]]}],
    "metric": "identity",
}


def test_parse_scalar_modes():
    assert lio.parse_scalar("3/4", exact=True) == Fraction(3, 4)
    assert lio.parse_scalar("3/4", exact=False) == pytest.approx(0.75)
    assert lio.parse_scalar(2, exact=True) == Fraction(2)
    assert lio.parse_scalar(1.5, exact=False) == pytest.approx(1.5)
    with pytest.raises(SpecError):
        lio.parse_scalar(1.5, exact=True)
    with pytest.raises(SpecError):
        lio.parse_scalar("nonsense", exact=False)


def test_algebra_round_trip_float(tmp_path, rng):
    ela = with_metric(get("heis3").ela, rand_pd(rng, 3))
    path = str(tmp_path / "alg.json")
    save_algebra(ela, path)
    back = load_algebra(path)
    assert back.dim == 3
    assert np.allclose(np.asarray(back.gram, float),
                       np.asarray(ela.gram, float), atol=1e-12)
    assert np.allclose(np.asarray(back.alg.c, float),
                       np.asarray(ela.alg.c, float), atol=1e-12)


def test_algebra_round_trip_exact(tmp_path):
    ela = get("e1", a=Fraction(5, 3), exact=True).ela
    path = str(tmp_path / "exact.json")
    save_algebra(ela, path)
    back = load_algebra(path, exact=True)
    assert back.exact
    assert back.bracket([Fraction(1), Fraction(0)],
                        [Fraction(0), Fraction(1)])[0] == Fraction(5, 3)


def test_identity_metric_shortcut_preserved(tmp_path):
    doc = algebra_to_doc(get("heis3").ela)
    assert doc["metric"] == "identity"
    near = np.eye(3)
    near[0, 0] = 1.0 + 1e-13
    doc2 = algebra_to_doc(with_metric(get("heis3").ela, near))
    assert doc2["metric"] != "identity"  # exact comparison, no collapsing


def test_duplicate_bracket_rejected(tmp_path):
    doc = dict(HEIS_DOC)
    doc["brackets"] = [
        {"i": 1, "j": 2, "coeffs": [[0, 1.0]]},
        {"i": 2, "j": 1, "coeffs": [[0, -1.0]]},
    ]
    with pytest.raises(SpecError):
        load_algebra(write(tmp_path, "dup.json", doc))


def test_index_range_rejected(tmp_path):
    doc = dict(HEIS_DOC)
    doc["brackets"] = [{"i": 1, "j": 3, "coeffs": [[0, 1.0]]}]
    with pytest.raises(SpecError):
        load_algebra(write(tmp_path, "oob.json", doc))


def test_malformed_json_rejected(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    with pytest.raises(SpecError):
        load_algebra(str(p))


def test_metric_validation(tmp_path):
    doc = dict(HEIS_DOC)
    doc["metric"] = [[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    with pytest.raises(MetricError):
        load_algebra(write(tmp_path, "nonpd.json", doc))
    doc["metric"] = [[1.0, 0.5, 0.0], [0.4, 1.0, 0.0], [0.0, 0.0, 1.0]]
    with pytest.raises(MetricError):
        load_algebra(write(tmp_path, "nonsym.json", doc))


def test_jacobi_violation_rejected(tmp_path):
    doc = {
        "name": "broken", "dim": 3,
        "brackets": [
            {"i": 0, "j": 1, "coeffs": [[2, 1.0]]},
            {"i": 0, "j": 2, "coeffs": [[0, 1.0]]},
        ],
        "metric": "identity",
    }
    with pytest.raises(StructureError):
        load_algebra(write(tmp_path, "jacobi.json", doc))


def test_map_round_trip_with_file_references(tmp_path, rng):
    alg_path = write(tmp_path, "heis.json", HEIS_DOC)
    line_doc = {"name": "line", "dim": 1, "brackets": [], "metric": [[2.0]]}
    write(tmp_path, "line.json", line_doc)
    map_doc = {
        "source": "heis.json",
        "target": "line.json",
        "xi": [[0.0, 0.3, -0.7]],
    }
    m = load_map(write(tmp_path, "map.json", map_doc))
    assert m.source.dim == 3 and m.target.dim == 1
    assert np.allclose(np.asarray(m.matrix, float), [[0.0, 0.3, -0.7]])
    tau = tension(m)
    assert np.linalg.norm(np.asarray(tau, float)) < 1e-12  # unimodular source

    doc_back = map_to_doc(m)
    assert np.allclose(np.asarray(doc_back["xi"], dtype=float),
                       [[0.0, 0.3, -0.7]])


def test_map_with_inline_algebras(tmp_path):
    map_doc = {
        "source": {"name": "a1", "dim": 1, "brackets": [], "metric": "identity"},
        "target": HEIS_DOC,
        "xi": [[1.0], [0.0], [0.0]],
    }
    m = load_map(write(tmp_path, "inline.json", map_doc))
    assert m.source.dim == 1 and m.target.dim == 3


def test_semidirect_round_trip_tangent(tmp_path):
    write(tmp_path, "e1.json", {
        "name": "e1", "dim": 2,
        "brackets": [{"i": 0, "j": 1, "coeffs": [[0, 1.0]]}],
        "metric": "identity",
    })
    sd_path = write(tmp_path, "tangent.json", {"tangent": "e1.json"})
    data = load_semidirect(sd_path)
    assert data.dim_kernel == 2 and data.dim_base == 2
    doc = semidirect_to_doc(data)
    back = lio.semidirect_from_doc(doc, base_dir=str(tmp_path))
    assert np.allclose(np.asarray(back.rho, float),
                       np.asarray(data.rho, float), atol=1e-12)


def test_semidirect_embedding_form(tmp_path, rng):
    write(tmp_path, "heis.json", HEIS_DOC)
    write(tmp_path, "base.json", {
        "name": "aff", "dim": 2,
        "brackets": [{"i": 0, "j": 1, "coeffs": [[0, 1.0]]}],
        "metric": "identity",
    })
    f = rng.normal(size=(3, 2))
    doc = {
        "kernel": "heis.json",
        "base": "base.json",
        "target_metric": [[2.0, 0.0], [0.0, 1.0]],
        "embedding": f.tolist(),
    }
    data = load_semidirect(write(tmp_path, "sd.json", doc))
    assert data.dim_kernel == 3
    # the action is conjugation through the embedding
    expected0 = np.asarray(data.kernel.ad(f[:, 0]), float)
    assert np.allclose(np.asarray(data.rho[0], float), expected0, atol=1e-12)


def test_missing_file_raises_spec_error(tmp_path):
    with pytest.raises(SpecError):
        load_algebra(str(tmp_path / "nope.json"))


def test_semidirect_action_round_trip_with_twist_and_target_metric():
    """Inner action of e1 on heis3 through F(h0) = f, F(h1) = g: the twist
    omega(h0, h1) = [f, g] - F([h0, h1]) = z - f is nonzero, and the target
    metric differs from the domain one."""
    heis, e1 = get("heis3", exact=True).ela, get("e1", exact=True).ela
    f = la.as_matrix([[0, 0], [1, 0], [0, 1]], True)
    target = InnerProduct.of([[2, 1], [1, 1]], exact=True)
    data = inner_action_data(heis, e1.alg, e1.inner, target, f)
    doc = json.loads(json.dumps(semidirect_to_doc(data)))
    assert doc["twist"] == [{"i": 0, "j": 1, "coeffs": [1, -1, 0]}]
    back = lio.semidirect_from_doc(doc, exact=True)
    for got, want in ((back.rho, data.rho), (back.omega, data.omega),
                      (back.inner_target.gram, target.gram),
                      (back.inner_domain.gram, e1.gram)):
        assert np.array_equal(got, want)


def test_semidirect_target_metric_keyword():
    doc = {"kernel": HEIS_DOC, "base": {"dim": 1}, "action": [np.zeros((3, 3)).tolist()]}
    back = lio.semidirect_from_doc({**doc, "target_metric": "identity"})
    assert np.array_equal(back.inner_target.gram, np.eye(1))
    with pytest.raises(SpecError, match="unknown metric keyword"):
        lio.semidirect_from_doc({**doc, "target_metric": "round"})


def test_semidirect_document_shape_errors():
    doc = {"kernel": HEIS_DOC, "base": {"dim": 2}}
    with pytest.raises(SpecError, match="one operator per base vector"):
        lio.semidirect_from_doc({**doc, "action": [np.zeros((3, 3)).tolist()]})
    with pytest.raises(SpecError, match="needs 'embedding' or 'action'"):
        lio.semidirect_from_doc(doc)


def test_numpy_integer_indices_are_accepted():
    doc = {"dim": np.int64(2), "brackets": [{"i": np.int32(0), "j": 1,
                                             "coeffs": [[np.int8(0), 1]]}]}
    assert np.array_equal(lio.algebra_from_doc(doc).alg.c, get("e1").ela.alg.c)


_BIG = 10 ** 400


@pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan"), _BIG, -_BIG,
                                   f"{_BIG}/3", f"-{_BIG}"],
                         ids=["inf", "-inf", "nan", "big", "-big", "big/3 string", "-big string"])
def test_float_mode_refuses_what_is_not_a_finite_float(value):
    with pytest.raises(SpecError, match="float mode needs finite numbers"):
        lio.parse_scalar(value, exact=False)


def test_exact_mode_loads_rationals_beyond_the_float_range():
    assert lio.parse_scalar(f"{_BIG}/3", exact=True) == Fraction(_BIG, 3)
    assert lio.parse_scalar(f"1/{_BIG}", exact=True) == Fraction(1, _BIG)
    assert lio.parse_scalar(_BIG, exact=True) == _BIG
    # a rational this small rounds to 0.0 in float mode: it is finite
    assert lio.parse_scalar(f"1/{_BIG}", exact=False) == 0.0


@pytest.mark.parametrize("text", ["1e400", "NaN", "-Infinity"])
def test_a_document_with_a_non_finite_number_is_a_spec_error(tmp_path, text):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({**HEIS_DOC, "metric": [[1, 0, 0], [0, 1, 0], [0, 0, 2]]})
                    .replace("2]]", f"{text}]]"))
    with pytest.raises(SpecError, match="float mode needs finite numbers"):
        lio.load_algebra(str(path))
