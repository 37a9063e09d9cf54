"""JSON spec files for algebras, maps, and semidirect construction data.

Scalar values in documents are JSON numbers or rational strings ``"p/q"``.
In exact mode every scalar must be an integer or a rational string (floats
carry no exact meaning); in float mode rational strings are converted.

Algebra documents::

    {"name": str, "dim": int,
     "brackets": [{"i": int, "j": int, "coeffs": [[k, value], ...]}, ...],
     "metric": "identity" | [[...], ...]}

Map documents::

    {"source": <algebra doc or file path>,
     "target": <algebra doc or file path>,
     "xi": [[...], ...]}          # target-dim x source-dim

Semidirect documents, one of::

    {"tangent": <algebra doc or path>}
    {"kernel": <algebra doc or path>, "base": <algebra doc or path>,
     "target_metric": "identity" | matrix,
     "embedding": matrix,                      # kernel-dim x base-dim
     "central_twist": [{"i", "j", "coeffs"}]}  # optional
    {... same, "action": [matrix, ...],        # explicit operator list
     "twist": [{"i", "j", "coeffs"}]}

The base algebra document's own ``metric`` is the domain-side metric;
``target_metric`` is the one the projection lands in (default: the same).
"""

from __future__ import annotations

import json
import math
import os
from fractions import Fraction
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from . import _linalg as la
from ._linalg import DEFAULT_TOL, Tolerance
from .core import (EuclideanLieAlgebra, InnerProduct, LieAlgebra, MetricError, StructureError,
                   _negligible)
from .maps import LieAlgebraMap
from .semidirect import SemidirectData, inner_action_data, tangent_semidirect


class SpecError(ValueError):
    """Malformed document: bad JSON, wrong shape, unknown keys or values."""


def parse_scalar(value, exact: bool):
    """A JSON number or ``"p/q"`` string to a float (or Fraction in exact
    mode).  Exact mode rejects non-integral floats; float mode rejects values
    that are not finite floats (NaN, infinities, numbers beyond the float
    range)."""
    if isinstance(value, str):
        try:
            frac = Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise SpecError(f"bad rational string {value!r}") from exc
        return frac if exact else _finite_float(frac, value)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SpecError(f"scalar expected, got {value!r}")
    if exact:
        if isinstance(value, int):
            return Fraction(value)
        raise SpecError(
            f"exact mode needs integers or rational strings, got {value!r}"
        )
    return _finite_float(value, value)


def _finite_float(number, value) -> float:
    """``number`` as a finite float; a SpecError naming the document's ``value``
    when it is NaN, infinite or beyond the float range."""
    try:
        out = float(number)
    except OverflowError:
        out = math.inf
    if not math.isfinite(out):
        raise SpecError(f"float mode needs finite numbers, got {value!r}")
    return out


def format_scalar(value) -> Union[int, float, str]:
    """Inverse of parse_scalar: Fractions to ``"p/q"`` strings (integers to
    JSON ints), floats passed through."""
    if isinstance(value, Fraction):
        return int(value) if value.denominator == 1 else f"{value.numerator}/{value.denominator}"
    if isinstance(value, (int, np.integer)):
        return int(value)
    return float(value)


def _array(value, what: str):
    """``value`` when it is an array (a list, tuple or ndarray); otherwise a
    SpecError naming ``what`` was expected."""
    if not isinstance(value, (list, tuple, np.ndarray)):
        raise SpecError(f"{what} expected, got {value!r}")
    return value


def _index(value, what: str) -> int:
    """``value`` when it is an integer (Python or NumPy); a bool, a float or
    a string is refused, never truncated."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise SpecError(f"{what} must be an integer, got {value!r}")
    return value


def _entries(entries, bound: int, what: str, bound_name: str):
    """``(i, j, coeffs)`` of each ``{"i", "j", "coeffs"}`` entry of the
    ``what`` list, with ``0 <= i < j < bound`` and no pair given twice."""
    seen = set()
    for ent in _array(entries, f"{what} list"):
        try:
            i, j, coeffs = ent["i"], ent["j"], ent["coeffs"]
        except (KeyError, TypeError) as exc:
            raise SpecError(f"bad {what} entry {ent!r}") from exc
        i, j = _index(i, f"{what} index"), _index(j, f"{what} index")
        if not 0 <= i < j < bound:
            raise SpecError(f"{what} indices ({i},{j}) need 0 <= i < j < {bound_name}")
        if (i, j) in seen:
            raise SpecError(f"duplicate {what} entry for ({i},{j})")
        seen.add((i, j))
        yield i, j, coeffs


def _parse_vector(values, n: int, exact: bool):
    out = la.zeros(n, exact)
    if len(_array(values, f"vector of length {n}")) != n:
        raise SpecError(f"vector of length {n} expected, got {len(values)}")
    for k, v in enumerate(values):
        out[k] = parse_scalar(v, exact)
    return out


def _parse_matrix(rows, shape: Tuple[int, int], exact: bool):
    out = la.zeros(shape, exact)
    if len(_array(rows, f"matrix with {shape[0]} rows")) != shape[0]:
        raise SpecError(f"matrix with {shape[0]} rows expected, got {len(rows)}")
    for i, row in enumerate(rows):
        out[i, :] = _parse_vector(row, shape[1], exact)
    return out


def _format_matrix(m) -> List[List[object]]:
    return [[format_scalar(v) for v in row] for row in np.asarray(m)]


def load_document(path: str) -> dict:
    """Read and JSON-parse a file; all failures become SpecError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise SpecError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SpecError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise SpecError(f"{path}: top-level JSON object expected")
    return doc


def _resolve(ref, base_dir: Optional[str]) -> dict:
    """An inline document passes through; a string is a file path, resolved
    relative to the referring file's directory."""
    if isinstance(ref, dict):
        return ref
    if isinstance(ref, str):
        path = ref if os.path.isabs(ref) or base_dir is None else os.path.join(base_dir, ref)
        return load_document(path)
    raise SpecError(f"inline document or file path expected, got {type(ref).__name__}")


def algebra_from_doc(doc: dict, exact: bool = False,
                     tol: Tolerance = DEFAULT_TOL) -> EuclideanLieAlgebra:
    """Build a Euclidean Lie algebra from an algebra document."""
    dim = _index(doc.get("dim"), "algebra document's 'dim'")
    if dim < 1:
        raise SpecError("'dim' must be positive")
    name = str(doc.get("name", ""))
    brackets = {}
    for i, j, coeffs in _entries(doc.get("brackets", []), dim, "bracket", "dim"):
        vec = la.zeros(dim, exact)
        for pair in _array(coeffs, "'coeffs' list"):
            if not isinstance(pair, (list, tuple)) or len(pair) != 2:
                raise SpecError(f"coefficient entries are [k, value] pairs, got {pair!r}")
            k = _index(pair[0], "coefficient index")
            if not 0 <= k < dim:
                raise SpecError(f"coefficient index {k} out of range")
            vec[k] = parse_scalar(pair[1], exact)
        brackets[(i, j)] = vec
    alg = LieAlgebra.from_brackets(dim, brackets, name=name, exact=exact, tol=tol)
    inner = _parse_metric(doc.get("metric", "identity"), dim, exact, tol)
    return EuclideanLieAlgebra(alg, inner, name=name)


def _parse_metric(value, dim: int, exact: bool, tol: Tolerance) -> InnerProduct:
    """A metric entry: ``"identity"`` or a Gram matrix, symmetric within ``tol``."""
    if isinstance(value, str):
        if value != "identity":
            raise SpecError(f"unknown metric keyword {value!r}")
        return InnerProduct.identity(dim, exact)
    gram = _parse_matrix(value, (dim, dim), exact)
    skew = gram - gram.T
    if not _negligible(skew, tol, lambda: la.norm(gram)):
        raise MetricError(f"metric is not symmetric (defect {la.norm(skew):.3e})")
    return InnerProduct(gram)


def algebra_to_doc(ela: EuclideanLieAlgebra) -> dict:
    """Serialize an algebra so that algebra_from_doc reproduces it."""
    dim = ela.dim
    brackets = []
    c = ela.alg.c
    for i in range(dim):
        for j in range(i + 1, dim):
            coeffs = [[k, format_scalar(c[i, j, k])] for k in range(dim)
                      if c[i, j, k] != 0]
            if coeffs:
                brackets.append({"i": i, "j": j, "coeffs": coeffs})
    if np.array_equal(ela.gram, np.eye(dim)):
        metric: object = "identity"
    else:
        metric = _format_matrix(ela.gram)
    return {"name": ela.name, "dim": dim, "brackets": brackets, "metric": metric}


def load_algebra(source: Union[str, dict], exact: bool = False,
                 tol: Tolerance = DEFAULT_TOL) -> EuclideanLieAlgebra:
    doc = load_document(source) if isinstance(source, str) else source
    return algebra_from_doc(doc, exact, tol)


def save_algebra(ela: EuclideanLieAlgebra, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(algebra_to_doc(ela), fh, indent=2)
        fh.write("\n")


def map_from_doc(doc: dict, exact: bool = False, tol: Tolerance = DEFAULT_TOL,
                 base_dir: Optional[str] = None) -> LieAlgebraMap:
    """Build a linear map between two algebra documents (inline or referenced)."""
    try:
        src_ref, tgt_ref, xi = doc["source"], doc["target"], doc["xi"]
    except KeyError as exc:
        raise SpecError(f"map document needs 'source', 'target' and 'xi'") from exc
    source = algebra_from_doc(_resolve(src_ref, base_dir), exact, tol)
    target = algebra_from_doc(_resolve(tgt_ref, base_dir), exact, tol)
    matrix = _parse_matrix(xi, (target.dim, source.dim), exact)
    return LieAlgebraMap(source, target, matrix,
                         name=str(doc.get("name", "")))


def load_map(path: str, exact: bool = False,
             tol: Tolerance = DEFAULT_TOL) -> LieAlgebraMap:
    doc = load_document(path)
    return map_from_doc(doc, exact, tol, base_dir=os.path.dirname(os.path.abspath(path)))


def map_to_doc(m: LieAlgebraMap) -> dict:
    return {
        "name": m.name,
        "source": algebra_to_doc(m.source),
        "target": algebra_to_doc(m.target),
        "xi": _format_matrix(m.matrix),
    }


def _parse_twist(entries, dim_base: int, dim_kernel: int, exact: bool):
    omega = la.zeros((dim_base, dim_base, dim_kernel), exact)
    for i, j, coeffs in _entries([] if entries is None else entries, dim_base, "twist",
                                 "base dim"):
        vec = _parse_vector(coeffs, dim_kernel, exact)
        omega[i, j] = vec
        omega[j, i] = -vec
    return omega


def semidirect_from_doc(doc: dict, exact: bool = False,
                        tol: Tolerance = DEFAULT_TOL,
                        base_dir: Optional[str] = None) -> SemidirectData:
    """Build semidirect construction data from a document (see module doc)."""
    if "tangent" in doc:
        ela = algebra_from_doc(_resolve(doc["tangent"], base_dir), exact, tol)
        return tangent_semidirect(ela)
    try:
        kernel_ref, base_ref = doc["kernel"], doc["base"]
    except KeyError as exc:
        raise SpecError("semidirect document needs 'kernel' and 'base' "
                        "(or 'tangent')") from exc
    kernel = algebra_from_doc(_resolve(kernel_ref, base_dir), exact, tol)
    base_ela = algebra_from_doc(_resolve(base_ref, base_dir), exact, tol)
    base, inner_domain = base_ela.alg, base_ela.inner
    tm = doc.get("target_metric", None)
    inner_target = inner_domain if tm is None else _parse_metric(tm, base.dim, exact, tol)
    if "embedding" in doc:
        f = _parse_matrix(doc["embedding"], (kernel.dim, base.dim), exact)
        om0 = _parse_twist(doc.get("central_twist"), base.dim, kernel.dim, exact)
        return inner_action_data(kernel, base, inner_domain, inner_target, f,
                                 omega0=om0, tol=tol)
    if "action" in doc:
        rho_rows = _array(doc["action"], "'action' list of operators")
        if len(rho_rows) != base.dim:
            raise SpecError(f"'action' needs one operator per base vector "
                            f"({base.dim}), got {len(rho_rows)}")
        rho = la.zeros((base.dim, kernel.dim, kernel.dim), exact)
        for k, rows in enumerate(rho_rows):
            rho[k] = _parse_matrix(rows, (kernel.dim, kernel.dim), exact)
        omega = _parse_twist(doc.get("twist"), base.dim, kernel.dim, exact)
        return SemidirectData(kernel=kernel, base=base,
                              inner_domain=inner_domain,
                              inner_target=inner_target,
                              rho=rho, omega=omega, tol=tol)
    raise SpecError("semidirect document needs 'embedding' or 'action'")


def load_semidirect(path: str, exact: bool = False,
                    tol: Tolerance = DEFAULT_TOL) -> SemidirectData:
    doc = load_document(path)
    return semidirect_from_doc(doc, exact, tol,
                               base_dir=os.path.dirname(os.path.abspath(path)))


def semidirect_to_doc(sd: SemidirectData) -> dict:
    base_doc = algebra_to_doc(EuclideanLieAlgebra(sd.base, sd.inner_domain))
    twist = []
    for i in range(sd.dim_base):
        for j in range(i + 1, sd.dim_base):
            if np.any(sd.omega[i, j]):
                twist.append({"i": i, "j": j,
                              "coeffs": [format_scalar(v) for v in sd.omega[i, j]]})
    return {
        "kernel": algebra_to_doc(sd.kernel),
        "base": base_doc,
        "target_metric": _format_matrix(sd.inner_target.gram),
        "action": [_format_matrix(sd.rho[k]) for k in range(sd.dim_base)],
        "twist": twist,
    }
