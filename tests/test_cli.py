"""Command-line interface: exit codes, output schema, round-trips."""
import json
from pathlib import Path

import numpy as np
import pytest

import lieharm.catalog as catalog_module
from lieharm import load_algebra
from lieharm.cli import main

from conftest import rand_pd

DATA = Path(__file__).parent / "data"

HEIS_DOC = {
    "name": "heis3",
    "dim": 3,
    "brackets": [{"i": 1, "j": 2, "coeffs": [[0, 1.0]]}],
    "metric": "identity",
}

E1_DOC = {
    "name": "e1",
    "dim": 2,
    "brackets": [{"i": 0, "j": 1, "coeffs": [[0, 1.0]]}],
    "metric": "identity",
}


def write(tmp_path, name, doc):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


def run(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_check_text_output(tmp_path, capsys):
    path = write(tmp_path, "heis.json", HEIS_DOC)
    rc, out, _ = run(capsys, ["check", path])
    assert rc == 0
    assert "unimodular: True" in out
    assert "Killing subalgebra: dim 1" in out


def test_check_json_schema(tmp_path, capsys):
    path = write(tmp_path, "heis.json", HEIS_DOC)
    rc, out, _ = run(capsys, ["--format", "json", "check", path])
    assert rc == 0
    doc = json.loads(out)
    assert doc["unimodular"] is True
    assert doc["kill_dim"] == 1
    assert doc["dim"] == 3


def test_analyze_character_flags(tmp_path, capsys):
    write(tmp_path, "e1.json", E1_DOC)
    map_path = write(tmp_path, "char.json", {
        "source": "e1.json",
        "target": {"name": "line", "dim": 1, "brackets": [],
                   "metric": "identity"},
        "xi": [[0.0, 1.0]],
    })
    rc, out, _ = run(capsys, ["--format", "json", "analyze", map_path])
    assert rc == 0
    doc = json.loads(out)
    assert set(doc) >= {"tension", "bitension", "flags", "defects"}
    assert doc["flags"]["biharmonic"] is True
    assert doc["flags"]["harmonic"] is False
    assert np.linalg.norm(np.asarray(doc["bitension"], dtype=float)) < 1e-8


def test_analyze_non_homomorphism_exits_one(tmp_path, capsys):
    write(tmp_path, "heis.json", HEIS_DOC)
    map_path = write(tmp_path, "bad.json", {
        "source": "heis.json",
        "target": "heis.json",
        "xi": [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]],
    })
    rc, out, _ = run(capsys, ["--format", "json", "analyze", map_path])
    assert rc == 1
    doc = json.loads(out)
    # schema is stable even on failure
    assert set(doc) >= {"tension", "bitension", "flags", "defects"}
    assert doc["tension"] is None
    assert doc["defects"]["homomorphism"] > 0.1


def test_cone_reports_dimension(tmp_path, capsys):
    path = write(tmp_path, "heis.json", HEIS_DOC)
    rc, out, _ = run(capsys, ["cone", path])
    assert rc == 0
    assert "dimension: 4" in out


def test_semidirect_build_and_round_trip(tmp_path, capsys):
    write(tmp_path, "e1.json", E1_DOC)
    sd_path = write(tmp_path, "tangent.json", {"tangent": "e1.json"})
    out_path = str(tmp_path / "total.json")
    rc, out, _ = run(capsys, ["--format", "json", "semidirect", sd_path,
                              "-o", out_path])
    assert rc == 0
    doc = json.loads(out)
    assert doc["flags"]["harmonic"] is False
    assert np.allclose(np.asarray(doc["tension"], dtype=float), [0.0, 1.0],
                       atol=1e-10)

    total = load_algebra(out_path)
    assert total.dim == 4
    rc2, out2, _ = run(capsys, ["--format", "json", "check", out_path])
    assert rc2 == 0
    assert json.loads(out2)["dim"] == 4


def test_catalog_listing_and_suite(capsys):
    rc, out, _ = run(capsys, ["catalog", "heis3"])
    assert rc == 0
    assert "ch_dim: 4" in out

    rc, out, _ = run(capsys, ["catalog"])
    assert rc == 0
    assert "0 failures" in out

    rc, _, err = run(capsys, ["catalog", "nosuch"])
    assert rc == 1


@pytest.mark.parametrize("argv, golden", [
    (["catalog"], "catalog_seed0.txt"),
    (["--format", "json", "catalog"], "catalog_seed0.json"),
])
def test_catalog_report_matches_the_golden_bytes(capsys, argv, golden):
    """The suite report for seed 0, text and json, byte for byte."""
    rc, out, err = run(capsys, argv)
    assert rc == 0 and err == ""
    assert out.encode() == (DATA / golden).read_bytes()


def test_exact_catalog_runs_exact_entries_with_the_float_report(capsys, monkeypatch):
    """``--exact`` builds the ten catalog entries of the suite exactly (float
    by default) and reports the same bytes as the float run."""
    real = catalog_module._entry_checks
    modes = []

    def recording(rec, name, entry, tol):
        modes.append(entry.ela.exact)
        real(rec, name, entry, tol)

    monkeypatch.setattr(catalog_module, "_entry_checks", recording)
    for argv, exact in ((["catalog"], False), (["--exact", "catalog"], True)):
        modes.clear()
        rc, out, _ = run(capsys, argv)
        assert rc == 0 and modes == [exact] * 10
        assert out.encode() == (DATA / "catalog_seed0.txt").read_bytes()


def test_exact_mode_round_trip(tmp_path, capsys):
    doc = {
        "name": "e1x", "dim": 2,
        "brackets": [{"i": 0, "j": 1, "coeffs": [[0, "3/2"]]}],
        "metric": "identity",
    }
    path = write(tmp_path, "exact.json", doc)
    rc, out, _ = run(capsys, ["--exact", "--format", "json", "check", path])
    assert rc == 0
    parsed = json.loads(out)
    assert parsed["u_vector"] == [0, "-3/2"]


def test_exact_mode_rejects_floats(tmp_path, capsys):
    doc = {
        "name": "f", "dim": 2,
        "brackets": [{"i": 0, "j": 1, "coeffs": [[0, 0.37]]}],
        "metric": "identity",
    }
    path = write(tmp_path, "floaty.json", doc)
    rc, _, err = run(capsys, ["--exact", "check", path])
    assert rc == 2


def test_parse_failure_exits_two(tmp_path, capsys):
    p = tmp_path / "broken.json"
    p.write_text("{oops")
    rc, _, err = run(capsys, ["check", str(p)])
    assert rc == 2
    rc, _, err = run(capsys, ["check", str(tmp_path / "missing.json")])
    assert rc == 2


def test_validation_failure_exits_one(tmp_path, capsys):
    doc = dict(HEIS_DOC)
    doc["metric"] = [[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    path = write(tmp_path, "nonpd.json", doc)
    rc, _, err = run(capsys, ["check", path])
    assert rc == 1


def test_tol_flag_loosens_hom_acceptance(tmp_path, capsys):
    write(tmp_path, "heis.json", HEIS_DOC)
    xi = (np.eye(3) + 2e-6 * np.ones((3, 3))).tolist()
    map_path = write(tmp_path, "near.json", {
        "source": "heis.json", "target": "heis.json", "xi": xi,
    })
    rc_strict, *_ = run(capsys, ["analyze", map_path])
    assert rc_strict == 1
    rc_loose, *_ = run(capsys, ["--tol", "1e-4", "analyze", map_path])
    assert rc_loose == 0
    # the tolerance governs float verdicts only: a rational near-hom stays one
    write(tmp_path, "heis_q.json", {**HEIS_DOC, "brackets": [{"i": 1, "j": 2, "coeffs": [[0, 1]]}]})
    xi_q = [["500001/500000" if i == j else "1/500000" for j in range(3)] for i in range(3)]
    exact_path = write(tmp_path, "near_q.json", {
        "source": "heis_q.json", "target": "heis_q.json", "xi": xi_q,
    })
    rc_exact, out, _ = run(capsys, ["--exact", "--tol", "1e-4", "analyze", exact_path])
    assert rc_exact == 1 and "not a Lie algebra homomorphism" in out


#: three brackets that violate Jacobi: [e0,e1]=e2, [e0,e2]=e0, [e1,e2]=e0
NON_JACOBI_DOC = {"dim": 3, "brackets": [{"i": 0, "j": 1, "coeffs": [[2, 1]]},
                                         {"i": 0, "j": 2, "coeffs": [[0, 1]]},
                                         {"i": 1, "j": 2, "coeffs": [[0, 1]]}]}


@pytest.mark.parametrize("tol", ["inf", "nan", "0", "-1e-9"])
@pytest.mark.parametrize("doc", [HEIS_DOC, NON_JACOBI_DOC], ids=["heis3", "non_jacobi"])
def test_tol_must_be_positive_and_finite(tmp_path, capsys, tol, doc):
    """An infinite tolerance would accept any bracket as Lie, a NaN one would
    refuse every float verdict: both are refused before the document is read."""
    rc, out, err = run(capsys, [f"--tol={tol}", "check", write(tmp_path, "doc.json", doc)])
    assert (rc, out) == (2, "") and "--tol must be positive and finite" in err
    assert run(capsys, ["check", write(tmp_path, "doc.json", doc)])[0] == (
        0 if doc is HEIS_DOC else 1)


#: malformed documents, each refused as a parse failure: (command, document)
MALFORMED = {
    "metric not a matrix": ("check", {"dim": 2, "metric": 5}),
    "brackets not a list": ("check", {"dim": 2, "brackets": 5}),
    "coeffs not a list": ("check", {"dim": 2, "brackets": [{"i": 0, "j": 1, "coeffs": 5}]}),
    "coefficient index not an integer": (
        "check", {"dim": 2, "brackets": [{"i": 0, "j": 1, "coeffs": [["a", 1]]}]}),
    "xi not a matrix": ("analyze", {"source": E1_DOC, "target": E1_DOC, "xi": 5}),
    "action not a list": ("semidirect", {"kernel": E1_DOC, "base": E1_DOC, "action": 5}),
    "target_metric not a matrix": ("semidirect", {
        "kernel": E1_DOC, "base": E1_DOC, "target_metric": 7, "embedding": [[1, 0], [0, 1]]}),
    "bracket indices floats": (
        "check", {"dim": 2, "brackets": [{"i": 0.9, "j": 1.5, "coeffs": [[0.7, 1]]}]}),
    "dim a bool": ("check", {"dim": True}),
    "dim a string": ("check", {"dim": "2"}),
    "twist index a float": ("semidirect", {
        "kernel": {"dim": 1}, "base": {"dim": 2}, "action": [[[0]], [[0]]],
        "twist": [{"i": 0, "j": 1.0, "coeffs": [1]}]}),
    "duplicate twist": ("semidirect", {
        "kernel": {"dim": 1}, "base": {"dim": 2}, "action": [[[0]], [[0]]],
        "twist": [{"i": 0, "j": 1, "coeffs": [1]}, {"i": 0, "j": 1, "coeffs": [0]}]}),
}

#: documents that parse but that the library refuses: (command, document, error text)
REFUSED = {
    "StructureError": ("check", {"dim": 3, "brackets": [{"i": 0, "j": 1, "coeffs": [[2, 1]]},
                                                        {"i": 0, "j": 2, "coeffs": [[0, 1]]}]},
                       "violate Jacobi"),
    "MetricError": ("check", {"dim": 2, "metric": [[1, 2], [2, 1]]}, "not positive definite"),
    "ConstructionError": ("semidirect", {"kernel": E1_DOC, "base": {"dim": 1},
                                         "action": [[[1, 0], [0, 1]]]}, "derivation"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_document_exits_two(tmp_path, capsys, case):
    command, doc = MALFORMED[case]
    rc, out, err = run(capsys, [command, write(tmp_path, "doc.json", doc)])
    assert (rc, out) == (2, "") and err.startswith("error: ")


@pytest.mark.parametrize("case", sorted(REFUSED))
def test_library_refusal_exits_one(tmp_path, capsys, case):
    command, doc, text = REFUSED[case]
    rc, out, err = run(capsys, [command, write(tmp_path, "doc.json", doc)])
    assert (rc, out) == (1, "") and err.startswith("error: ") and text in err


_BIG = 10 ** 400

#: documents whose numbers are no finite floats, each refused in float mode
#: as a parse failure: (document, the text of the offending number)
NON_FINITE = {
    "coefficient 1e400": (HEIS_DOC, "1e400"),
    "coefficient NaN": (HEIS_DOC, "NaN"),
    "Gram entry Infinity": ({**HEIS_DOC, "brackets": [{"i": 1, "j": 2, "coeffs": [[0, 1]]}],
                             "metric": [[1, 0, 0], [0, 1, 0], [0, 0, 1.0]]}, "Infinity"),
    "401-digit rational string": (HEIS_DOC, f'"{_BIG}/1"'),
}


@pytest.mark.parametrize("case", sorted(NON_FINITE))
def test_a_non_finite_number_exits_two(tmp_path, capsys, case):
    doc, number = NON_FINITE[case]
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc).replace("1.0]]", f"{number}]]"))
    rc, out, err = run(capsys, ["check", str(path)])
    assert (rc, out) == (2, "") and err.startswith("error: float mode needs finite numbers")


def _heis_big():
    return {**HEIS_DOC, "brackets": [{"i": 1, "j": 2, "coeffs": [[0, _BIG]]}]}


@pytest.mark.parametrize("command, doc", [
    ("check", _heis_big()),
    ("cone", _heis_big()),
    ("analyze", {"source": _heis_big(), "target": _heis_big(),
                 "xi": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}),
    ("semidirect", {"tangent": _heis_big()}),
], ids=["check", "cone", "analyze", "semidirect"])
def test_exact_commands_decide_a_coefficient_beyond_the_float_range(tmp_path, capsys, command,
                                                                     doc):
    rc, out, err = run(capsys, ["--exact", command, write(tmp_path, "doc.json", doc)])
    assert (rc, err) == (0, "")
    assert {"check": "unimodular: True", "cone": "dimension: 4",
            "analyze": "harmonic=True", "semidirect": "harmonic=True"}[command] in out


@pytest.mark.parametrize("command, doc", [
    # the source Gram's 10**400 enters the float immersion defect
    ("analyze", {"source": {**E1_DOC, "brackets": [{"i": 0, "j": 1, "coeffs": [[0, 1]]}],
                            "metric": [[_BIG, 0], [0, 1]]},
                 "target": {**E1_DOC, "brackets": [{"i": 0, "j": 1, "coeffs": [[0, 1]]}]},
                 "xi": [[1, 0], [0, 1]]}),
    # the coefficient enters the float action defect of the compatibility report
    ("semidirect", {"tangent": {**E1_DOC, "brackets": [{"i": 0, "j": 1, "coeffs": [[0, _BIG]]}]}}),
], ids=["analyze", "semidirect"])
def test_an_exact_value_beyond_a_float_report_exits_one(tmp_path, capsys, command, doc):
    rc, out, err = run(capsys, ["--exact", command, write(tmp_path, "doc.json", doc)])
    assert (rc, out) == (1, "") and err.startswith("error: ") and "float" in err
