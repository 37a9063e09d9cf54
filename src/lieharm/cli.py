"""Command-line interface.

Commands
--------
* ``check PATH``      — validate an algebra spec; print its basic invariants.
* ``analyze PATH``    — tension/bitension and classification of a map spec.
* ``cone PATH``       — harmonic-cone dimension and basis for an algebra spec.
* ``semidirect PATH`` — build the total algebra from semidirect data; emit it
  as a round-trippable algebra spec.
* ``catalog [NAME]``  — entry listing, or the full verification suite.

Exit codes: 0 success, 1 domain/validation failure, 2 I/O or parse failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction
from typing import Dict, List, Optional

import numpy as np

from . import _linalg as la
from ._linalg import Tolerance
from . import catalog as cat
from . import io as lio
from .cone import ConeError, harmonic_cone, harmonic_dimension_check
from .core import CrossCheckError, MetricError, StructureError
from .maps import (
    MapError,
    classify,
    riemannian_immersion_defect,
    riemannian_submersion_defect,
    submersion_defects,
    submersion_split,
    validate_hom,
)
from .semidirect import ConstructionError, build_semidirect, check_condition

_PARSE_ERRORS = (lio.SpecError,)
# OverflowError: an exact value beyond the float range cannot be reported as a float
_DOMAIN_ERRORS = (StructureError, MetricError, MapError, ConeError,
                  ConstructionError, cat.CatalogError, CrossCheckError,
                  la.LinAlgDomainError, la.ExactModeUnsupported, OverflowError)


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, Fraction):
        return lio.format_scalar(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (bool, int, float, str)) or obj is None:
        return obj
    return str(obj)


def _scalar_str(v) -> str:
    if isinstance(v, Fraction):
        return str(lio.format_scalar(v))
    f = float(v)
    if abs(f) < 1e-12:   # display-only snap of numerical noise
        f = 0.0
    return f"{f:.6g}"


def _vec_str(vec) -> str:
    return "(" + ", ".join(_scalar_str(v) for v in np.asarray(vec)) + ")"


def _mat_lines(m, indent: str = "  ") -> List[str]:
    return [indent + "[" + ", ".join(_scalar_str(v) for v in row) + "]"
            for row in np.asarray(m)]


def _emit(args, doc: Dict[str, object], text_lines: List[str]) -> None:
    if args.format == "json":
        print(json.dumps(_jsonable(doc), indent=2))
    else:
        for line in text_lines:
            print(line)


def _tolerance(args) -> Tolerance:
    if not 0 < args.tol < math.inf:            # refuses NaN too
        raise lio.SpecError(f"--tol must be positive and finite, got {args.tol}")
    return Tolerance(args.tol, args.tol)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_check(args) -> int:
    tol = _tolerance(args)
    ela = lio.load_algebra(args.path, args.exact, tol)
    u = ela.unimodular_vector(tol)
    kill = ela.killing_subalgebra(tol)
    doc = {
        "name": ela.name,
        "dim": ela.dim,
        "unimodular": ela.is_unimodular(tol),
        "u_vector": list(u),
        "kill_dim": int(kill.shape[1]),
        "kill_basis": [list(kill[:, k]) for k in range(kill.shape[1])],
        "biinvariant": ela.is_biinvariant(tol),
    }
    text = [
        f"algebra: {ela.name or '(unnamed)'}  (dim {ela.dim})",
        "valid: bracket satisfies Jacobi; metric is positive definite",
        f"unimodular: {doc['unimodular']}",
        f"unimodularity vector: {_vec_str(u)}",
        f"Killing subalgebra: dim {doc['kill_dim']}",
    ]
    for k in range(kill.shape[1]):
        text.append(f"  kill[{k}] = {_vec_str(kill[:, k])}")
    text.append(f"bi-invariant metric: {doc['biinvariant']}")
    _emit(args, doc, text)
    return 0


def cmd_analyze(args) -> int:
    tol = _tolerance(args)
    m = lio.load_map(args.path, args.exact, tol)
    hom_defect = float(m.hom_defect())
    if not validate_hom(m, tol):
        doc = {
            "error": "not a Lie algebra homomorphism",
            "tension": None,
            "bitension": None,
            "flags": {},
            "defects": {"homomorphism": hom_defect},
        }
        _emit(args, doc, [
            "error: not a Lie algebra homomorphism",
            f"max bracket defect: {hom_defect:.6e}",
        ])
        return 1
    cls = classify(m, tol)
    defects: Dict[str, object] = {
        "homomorphism": hom_defect,
        "riemannian_immersion": float(riemannian_immersion_defect(m)),
        "riemannian_submersion": float(riemannian_submersion_defect(m)),
    }
    doc = {
        "tension": list(cls.tension),
        "bitension": list(cls.bitension),
        "flags": dict(cls.flags),
        "defects": defects,
    }
    text = [
        f"map: {m.name or '(unnamed)'}  "
        f"({m.source.name or 'source'} -> {m.target.name or 'target'})",
        f"tension:   {_vec_str(cls.tension)}",
        f"bitension: {_vec_str(cls.bitension)}",
        "flags: " + ", ".join(f"{k}={v}" for k, v in cls.flags.items()),
    ]
    if cls.flags["riemannian_submersion"]:
        sdef = submersion_defects(m, tol)
        defects["tension_killing"] = float(sdef["killing_defect"])
        defects["tension_parallel"] = float(sdef["parallel_defect"])
        split = submersion_split(m, tol)
        doc["kernel_mean_curvature"] = list(split.mean_curvature)
        text.append(f"kernel mean curvature: {_vec_str(split.mean_curvature)}")
        text.append(f"tension Killing defect:  {sdef['killing_defect']:.6e}")
        text.append(f"tension parallel defect: {sdef['parallel_defect']:.6e}")
    text.append("defects: " + ", ".join(f"{k}={float(v):.3e}"
                                        for k, v in defects.items()))
    _emit(args, doc, text)
    return 0


def cmd_cone(args) -> int:
    tol = _tolerance(args)
    ela = lio.load_algebra(args.path, args.exact, tol)
    result = harmonic_cone(ela, tol)
    doc = {
        "name": ela.name,
        "dimension": result.dimension,
        "basis": [[list(row) for row in np.asarray(b)] for b in result.sym_basis],
    }
    text = [f"algebra: {ela.name or '(unnamed)'}  (dim {ela.dim})",
            f"dimension: {result.dimension}"]
    if ela.is_unimodular(tol):
        measured, predicted = harmonic_dimension_check(ela, tol)
        doc["predicted_dimension"] = predicted
        text.append(f"predicted (n(n-1)/2 + dim Kill): {predicted}")
    for k, b in enumerate(result.sym_basis):
        text.append(f"basis[{k}] =")
        text.extend(_mat_lines(b))
    _emit(args, doc, text)
    return 0


def cmd_semidirect(args) -> int:
    tol = _tolerance(args)
    sd = lio.load_semidirect(args.path, args.exact, tol)
    report = check_condition(sd, tol)
    total, proj = build_semidirect(sd, tol)
    cls = classify(proj, tol)
    spec = lio.algebra_to_doc(total)
    doc = {
        "algebra": spec,
        "projection": [list(row) for row in np.asarray(proj.matrix)],
        "tension": list(cls.tension),
        "bitension": list(cls.bitension),
        "flags": dict(cls.flags),
        "condition_defects": {
            "action": report.action_defect,
            "cocycle": report.cocycle_defect,
        },
    }
    text = [
        f"total algebra: dim {total.dim} "
        f"(kernel {sd.dim_kernel} + base {sd.dim_base})",
        f"projection tension:   {_vec_str(cls.tension)}",
        f"projection bitension: {_vec_str(cls.bitension)}",
        "flags: " + ", ".join(f"{k}={v}" for k, v in cls.flags.items()),
    ]
    if args.output:
        lio.save_algebra(total, args.output)
        text.append(f"algebra spec written to {args.output}")
    else:
        text.append("algebra spec:")
        text.append(json.dumps(_jsonable(spec), indent=2))
    _emit(args, doc, text)
    return 0


def cmd_catalog(args) -> int:
    tol = _tolerance(args)
    if args.name:
        entry = cat.get(args.name, exact=args.exact)
        doc = {
            "name": entry.name,
            "dim": entry.ela.dim,
            "expected": dict(entry.expected),
            "spec": lio.algebra_to_doc(entry.ela),
        }
        text = [f"entry: {entry.name}  (dim {entry.ela.dim})", "expected:"]
        for k, v in entry.expected.items():
            text.append(f"  {k}: {_jsonable(v)}")
        _emit(args, doc, text)
        return 0
    report = cat.run_verification_suite(tol, seed=args.seed, exact=args.exact)
    doc = report.to_dict()
    text = []
    for c in report.checks:
        text.append(("PASS " if c.passed else "FAIL ") + c.name)
        if not c.passed:
            text.append(f"      expected: {c.expected}")
            text.append(f"      measured: {c.measured}")
    text.append(f"{len(report.checks)} checks, {len(report.failures)} failures")
    _emit(args, doc, text)
    return 0 if report.passed else 1


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lieharm",
        description="Harmonic and biharmonic analysis of Lie-algebra "
                    "homomorphisms with left-invariant metrics.",
    )
    parser.add_argument("--tol", type=float, default=1e-9,
                        help="tolerance of float verdicts (default 1e-9)")
    parser.add_argument("--exact", action="store_true",
                        help="exact rational arithmetic (inputs must be "
                             "integers or 'p/q' strings)")
    parser.add_argument("--format", choices=("text", "json"), default="text",
                        help="output format (default text)")
    parser.add_argument("--seed", type=int, default=0,
                        help="random seed for randomized searches")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="validate an algebra spec file")
    p.add_argument("path")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("analyze", help="tension/bitension of a map spec file")
    p.add_argument("path")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("cone", help="harmonic cone of an algebra spec file")
    p.add_argument("path")
    p.set_defaults(func=cmd_cone)

    p = sub.add_parser("semidirect",
                       help="build the total algebra from semidirect data")
    p.add_argument("path")
    p.add_argument("-o", "--output", default=None,
                   help="write the built algebra spec to this file")
    p.set_defaults(func=cmd_semidirect)

    p = sub.add_parser("catalog",
                       help="entry listing, or run the verification suite")
    p.add_argument("name", nargs="?", default=None)
    p.set_defaults(func=cmd_catalog)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _PARSE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except _DOMAIN_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
