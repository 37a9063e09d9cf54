"""Seeded workloads: each is an endless sequence of cycles of library calls.

Every cycle has the same mix of operations; their numbers (and, in
``sweep``, their order) are drawn from ``(seed, cycle index)``.  Each cycle
builds its own library objects, so every cycle starts with cold memos.  An ``Op`` holds the
call, the verdict expected from ``oracle`` and how to compare the two.

* ``sweep``  -- thousands of small float verdicts (dims 2-6) plus a fixed
  ill-conditioned stratum; query-heavy, half the ops reuse an object an
  earlier op already queried.
* ``ladder`` -- float tangent towers e1 2->32 and heis3 3->24; one op per
  rung (build, classify the projection, cone of the total).
* ``exact``  -- the same kinds of call on Fractions, dims 2-8.
"""

from __future__ import annotations

import contextlib
import io as _io
import json
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

import lieharm as L
import lieharm.cli

from . import oracle as ref

# ---------------------------------------------------------------------------
# operations and verdict checks
# ---------------------------------------------------------------------------


@dataclass
class Op:
    """One library call sequence and its independently known answer.

    ``run`` returns the library's output; ``check(out, exc, expected)``
    decides the verdict, with ``exc`` the exception raised (or None).
    """

    kind: str
    dim: int
    run: Callable[[], object]
    check: Callable[[object, Optional[BaseException], object], bool]
    expected: object
    stratum: str = "main"          # "illcond" ops may be refused with a domain error
    reuse: bool = False            # queries an object an earlier op already queried
    top: bool = False              # counts toward top_rung_s

    def verdict(self, out, exc) -> bool:
        try:
            return bool(self.check(out, exc, self.expected))
        except Exception:          # a malformed result is a wrong verdict
            return False


def _close(a, b, rtol: float = 1e-8) -> bool:
    a = np.asarray(a, float)
    b = np.asarray(b, float)
    return a.shape == b.shape and float(np.linalg.norm(a - b)) <= rtol * (1.0 + float(np.linalg.norm(b)))


def _exact_eq(a, b) -> bool:
    return len(a) == len(b) and all(Fraction(x) == Fraction(y) for x, y in zip(a, b))


def _flags_tension(out, exc, exp) -> bool:
    """classify output: harmonic/biharmonic flags and the tension vector."""
    if exc is not None:
        return False
    flags = out.flags
    same = _exact_eq if exp.get("exact") else _close
    ok = (flags["harmonic"] == exp["harmonic"] and flags["biharmonic"] == exp["biharmonic"]
          and same(out.tension, exp["tension"]))
    if "submersion" in exp:
        ok = ok and flags["riemannian_submersion"] == exp["submersion"]
    return ok


def _rung_check(out, exc, exp) -> bool:
    if exc is not None:
        return False
    total, cls, cone = out
    same_tensor = (np.array_equal(total.alg.c, exp["c"]) if exp["exact"]
                   else _close(total.alg.c, exp["c"], 1e-12))
    return same_tensor and _flags_tension(cls, None, exp) and cone.dimension == exp["cone"]


def _dimcheck(out, exc, exp) -> bool:
    if exc is not None:
        return False
    cone, pair = out
    return cone.dimension == exp and (pair is None or tuple(pair) == (exp, exp))


def _illcond(out, exc, exp) -> bool:
    """Ill-conditioned input: a consistent, admissible answer or a domain error."""
    if exc is not None:
        return isinstance(exc, L.LinAlgDomainError)
    return out[0] == out[1] and out[0] in exp


def _zero_iff(out, exc, exp) -> bool:
    """Tension vanishes exactly when expected (exact zero in Fraction mode)."""
    if exc is not None:
        return False
    if exp["exact"]:
        return all(Fraction(v) == 0 for v in out) == exp["zero"]
    size = float(np.linalg.norm(np.asarray(out, float)))
    return size <= 1e-9 if exp["zero"] else size >= 1e-6


def _recipe(out, exc, exp) -> bool:
    if exp["raises"] is not None:
        return isinstance(exc, exp["raises"])
    if exc is not None:
        return False
    proj = out.projection
    args = (out.total.alg.c, proj.source.gram, proj.target.alg.c, proj.target.gram, proj.matrix)
    tau, tau2, (s1, s2) = ref.tension_bitension(*args)
    flag = out.classification.flags[exp["flag"]]
    vec, scale = (tau, s1) if exp["flag"] == "harmonic" else (tau2, s2)
    ok = flag and float(np.linalg.norm(vec)) <= 1e-7 * scale
    if exp.get("submersion"):
        ok = ok and ref.is_riemannian_submersion(proj.source.gram, proj.target.gram, proj.matrix)
    return ok


def _cli(out, exc, exp) -> bool:
    """Exit code 0 and the expected fields (dotted paths) of the JSON output."""
    if exc is not None:
        return False
    code, doc = out

    def field(path):
        val = doc
        for key in path.split("."):
            val = val[key]
        return val
    return code == 0 and all(field(k) == v for k, v in exp.items())


# ---------------------------------------------------------------------------
# input generators (numpy only; the library sees the resulting arrays)
# ---------------------------------------------------------------------------


def rand_pd(rng: np.random.Generator, n: int, lo: float = 0.5, hi: float = 2.0) -> np.ndarray:
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    return q @ np.diag(rng.uniform(lo, hi, size=n)) @ q.T


def _signed(rng, lo=0.5, hi=2.0, size=None):
    return rng.uniform(lo, hi, size=size) * rng.choice([-1.0, 1.0], size=size)


_PARAM = {"e1": "a", "heis3": "alpha", "e2flat": "lam", "aff2solv": "beta"}


def _param(rng, name):
    return float(rng.uniform(0.5, 2.0)) if name in _PARAM else 1


def _make_ela(name: str, p, gram, n: int = 3, exact: bool = False):
    """Catalog algebra with a chosen Gram (built inside the timed op)."""
    kw = {_PARAM[name]: p} if name in _PARAM else ({"n": n} if name == "abelian" else {})
    alg = L.get(name, exact=exact, **kw).ela.alg
    return L.EuclideanLieAlgebra(alg, L.InnerProduct.of(gram, exact=exact), name=name)


class _Slot:
    """Holds the object a group of ops shares, so later ops reuse its memo."""

    def __init__(self, build):
        self.build = build
        self.obj = None

    def get(self):
        if self.obj is None:
            self.obj = self.build()
        return self.obj


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

#: Ill-conditioned stratum, identical in every cycle: near-degenerate so3
#: metrics (1, 1+delta, 2) on a log grid of delta, and heis3 rescaled by
#: 10^k through its Gram and through its bracket.  Admissible dimensions:
#: delta may be read as 0 (two equal axes: 4) or not (3).
ILLCOND_DELTAS = tuple(float(d) for d in np.logspace(-11, -5, 25))
ILLCOND_SCALES = (-12, -8, -4, 4, 8, 12)
STRATUM_EVERY = 16                 # one ill-conditioned op per 16 ops


def _illcond_ops() -> List[Op]:
    ops = []
    for d in ILLCOND_DELTAS:
        def run(d=d):
            ela = L.get("so3", alphas=(1.0, 1.0 + d, 2.0)).ela
            return L.harmonic_dimension_check(ela)
        ops.append(Op("illcond.so3_delta", 3, run, _illcond, (3, 4), stratum="illcond"))
    for k in ILLCOND_SCALES:
        def run_gram(k=k):
            alg = L.get("heis3").ela.alg
            return L.harmonic_dimension_check(
                L.EuclideanLieAlgebra(alg, L.InnerProduct.of(np.eye(3) * 10.0 ** k)))

        def run_bracket(k=k):
            return L.harmonic_dimension_check(L.get("heis3", alpha=10.0 ** k).ela)
        ops.append(Op("illcond.gram_scale", 3, run_gram, _illcond, (4,), stratum="illcond"))
        ops.append(Op("illcond.bracket_scale", 3, run_bracket, _illcond, (4,), stratum="illcond"))
    return ops


SWEEP_KINDS = ("e1", "heis3", "so3", "sl2", "nilp5", "e2flat", "aff2solv", "abelian")


def _group_ops(rng, name: str) -> List[Op]:
    """Two or three ops on one freshly drawn algebra; all but the first reuse it."""
    n = int(rng.integers(2, 7)) if name == "abelian" else ref.DIMS[name]
    p = _param(rng, name)
    gram = rand_pd(rng, n)
    c = ref.structure(name, p, n)
    unimod = ref.UNIMODULAR[name]
    u_src = ref.unimodular_vector(c, gram)
    slot = _Slot(lambda: _make_ela(name, p, gram, n))
    menu = ["cone"]
    if name not in ("so3", "sl2"):
        menu.append("character")
    if n <= 3:
        menu.append("tangent")
    if name in ref.CENTER:
        menu.append("inner")
    size = min(len(menu), 2 + int(rng.random() < 0.4))
    ops = []
    for kind in rng.permutation(menu)[:size]:
        if kind == "cone":
            def run():
                ela = slot.get()
                pair = L.harmonic_dimension_check(ela) if unimod else None
                return L.harmonic_cone(ela), pair
            ops.append(Op("cone", n, run, _dimcheck, ref.cone_dimension(c, gram)))
        elif kind == "character":
            m = int(rng.integers(1, 3))
            ann = ref.derived_annihilator(c)
            xi = _signed(rng, size=(m, ann.shape[0])) @ ann
            tgt_gram = rand_pd(rng, m)

            def run(xi=xi, m=m, tgt_gram=tgt_gram):
                tgt = _make_ela("abelian", 1, tgt_gram, m)
                return L.classify(L.LieAlgebraMap(slot.get(), tgt, xi))
            exp = {"harmonic": unimod, "biharmonic": True, "tension": -xi @ u_src}
            ops.append(Op("classify.character", max(n, m), run, _flags_tension, exp))
        elif kind == "tangent":
            def run():
                _, proj = L.build_semidirect(L.tangent_semidirect(slot.get()))
                return L.classify(proj)
            exp = {"harmonic": unimod, "biharmonic": unimod, "tension": -u_src,
                   "submersion": True}
            ops.append(Op("classify.tangent", 2 * n, run, _flags_tension, exp, top=2 * n == 6))
        else:
            central = bool(rng.random() < 0.5)
            u = np.zeros(n)
            if central:
                u[ref.CENTER[name]] = _signed(rng)
            else:
                u = rng.uniform(-1.0, 1.0, size=n)
                free = [i for i in range(n) if i not in ref.CENTER[name]]
                u[free[int(rng.integers(len(free)))]] = _signed(rng)

            def run(u=u):
                return L.inner_tension(L.exp_adjoint(slot.get(), u))
            ops.append(Op("inner_tension", n, run, _zero_iff, {"zero": central, "exact": False}))
    for op in ops[1:]:
        op.reuse = True
    return ops


def _abelian_map_op(rng) -> Op:
    m, n = (int(v) for v in rng.integers(1, 7, size=2))
    gs, gt, xi = rand_pd(rng, m), rand_pd(rng, n), rng.normal(size=(n, m))

    def run():
        return L.classify(L.LieAlgebraMap(_make_ela("abelian", 1, gs, m),
                                          _make_ela("abelian", 1, gt, n), xi))
    exp = {"harmonic": True, "biharmonic": True, "tension": np.zeros(n)}
    return Op("classify.abelian", max(m, n), run, _flags_tension, exp)


def _two_dim_solvable(a: float):
    return L.LieAlgebra.from_brackets(2, {(0, 1): [a, 0.0]}, name="aff")


RECIPES = ("harmonic", "infeasible", "biharmonic", "unimodular_kernel", "killing_trace",
           "parallel_trace", "flat_target", "precondition")


def _recipe_op(rng, which: str) -> Op:
    """The search recipes as exercised by the library's own tests."""
    seed = int(rng.integers(1000))
    a = float(rng.uniform(0.5, 2.0))
    g2, g3 = rand_pd(rng, 2), rand_pd(rng, 3)
    eye = L.InnerProduct.identity
    exp = {"raises": None, "flag": "biharmonic"}
    if which == "harmonic":
        def run():
            return L.build_harmonic_submersion(
                _two_dim_solvable(a), eye(2), L.InnerProduct.of(g2),
                _make_ela("aff2solv", 0.5, g3), budget=20, seed=seed)
        exp["flag"], dim = "harmonic", 5
    elif which == "infeasible":
        # a unimodular kernel has only traceless inner derivations, so it
        # cannot absorb the nonzero tension of Id: (I) -> (g2)
        c2 = ref.structure("e1", a)
        while np.linalg.norm(ref.tension_bitension(c2, np.eye(2), c2, g2, np.eye(2))[0]) < 1e-3:
            g2 = rand_pd(rng, 2)

        def run():
            return L.build_harmonic_submersion(
                _two_dim_solvable(a), eye(2), L.InnerProduct.of(g2),
                _make_ela("heis3", 1.0, g3), budget=5, seed=seed)
        exp["raises"], dim = L.InfeasibleSearch, 5
    elif which == "biharmonic":
        def run():
            return L.build_biharmonic_submersion(
                _two_dim_solvable(a), eye(2), eye(2), _make_ela("heis3", 1.0, g3),
                budget=10, seed=seed)
        dim = 5
    elif which in ("unimodular_kernel", "killing_trace"):
        def run():
            return L.build_riemannian_biharmonic(
                L.get("so3").ela.alg, L.InnerProduct.of(g3), _make_ela("heis3", 1.0, g3),
                variant=which, budget=20, seed=seed)
        exp["submersion"], dim = True, 6
    elif which == "parallel_trace":
        def run():
            return L.build_riemannian_biharmonic(
                _two_dim_solvable(1.0), eye(2), _make_ela("e1", a, g2),
                variant="parallel_trace", budget=30, seed=seed)
        exp["submersion"], dim = True, 4
    elif which == "flat_target":
        def run():
            return L.build_flat_target_submersion(
                L.get("e2flat").ela, _make_ela("aff2solv", 0.5, g3), budget=20, seed=seed)
        dim = 6
    else:  # a curved base is refused before any search
        def run():
            return L.build_flat_target_submersion(
                L.get("so3").ela, _make_ela("heis3", 1.0, g3), budget=5, seed=seed)
        exp["raises"], dim = L.ConstructionError, 6
    return Op(f"recipe.{which}", dim, run, _recipe, exp)


def _alg_doc(name: str, c, gram) -> dict:
    n = c.shape[0]
    brackets = []
    for i in range(n):
        for j in range(i + 1, n):
            coeffs = [[k, float(c[i, j, k])] for k in range(n) if c[i, j, k] != 0]
            if coeffs:
                brackets.append({"i": i, "j": j, "coeffs": coeffs})
    return {"name": name, "dim": n, "brackets": brackets,
            "metric": np.asarray(gram, float).tolist()}


def _cli_specs(rng, spec_dir: str) -> List[Tuple[List[str], Dict[str, object], int]]:
    """Spec files for in-process ``lieharm`` runs: (argv, expected JSON fields, dim)."""
    os.makedirs(spec_dir, exist_ok=True)
    specs = []

    def write(fname, doc):
        path = os.path.join(spec_dir, fname)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        return path

    for k, name in enumerate(("heis3", "e1", "aff2solv")):
        p = _param(rng, name)
        c, g = ref.structure(name, p), rand_pd(rng, ref.DIMS[name])
        n = ref.DIMS[name]
        doc = _alg_doc(name, c, g)
        alg_path = write(f"alg{k}.json", doc)
        specs.append((["--format", "json", "cone", alg_path],
                      {"dimension": ref.cone_dimension(c, g)}, n))
        specs.append((["--format", "json", "check", alg_path],
                      {"unimodular": ref.UNIMODULAR[name]}, n))
        ann = ref.derived_annihilator(c)
        xi = _signed(rng, size=(1, ann.shape[0])) @ ann
        tgt = _alg_doc("line", np.zeros((1, 1, 1)), rand_pd(rng, 1))
        map_path = write(f"map{k}.json", {"source": doc, "target": tgt, "xi": xi.tolist()})
        specs.append((["--format", "json", "analyze", map_path],
                      {"flags.harmonic": ref.UNIMODULAR[name], "flags.biharmonic": True}, n))
        sd_path = write(f"tangent{k}.json", {"tangent": doc})
        specs.append((["--format", "json", "semidirect", sd_path],
                      {"flags.harmonic": ref.UNIMODULAR[name],
                       "flags.biharmonic": ref.UNIMODULAR[name]}, 2 * n))
    return specs


def _cli_op(argv, expected, dim) -> Op:
    def run():
        buf = _io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = lieharm.cli.main(argv)
        return code, json.loads(buf.getvalue())
    return Op(f"cli.{argv[2]}", dim, run, _cli, expected)


class Sweep:
    TAIL = 0.99                    # op_tail_ms percentile: ~100 ops per run lie beyond it

    def __init__(self, seed: int, work_dir: str):
        self.seed = seed
        self.specs = _cli_specs(np.random.default_rng([seed, 1 << 20]),
                                os.path.join(work_dir, "specs"))

    def cycle(self, index: int) -> List[Op]:
        rng = np.random.default_rng([self.seed, index])
        stratum = _illcond_ops()
        total = len(stratum) * STRATUM_EVERY
        blocks: List[List[Op]] = []
        blocks += [[_recipe_op(rng, w)] for w in RECIPES * 2]
        blocks += [[_cli_op(*s)] for s in self.specs * 2]
        count = sum(len(b) for b in blocks)
        while count < total - len(stratum):
            if rng.random() < 0.05:
                block = [_abelian_map_op(rng)]
            else:
                block = _group_ops(rng, SWEEP_KINDS[int(rng.integers(len(SWEEP_KINDS)))])
            block = block[: total - len(stratum) - count]
            blocks.append(block)
            count += len(block)
        order = rng.permutation(len(blocks))
        main = [op for i in order for op in blocks[i]]
        ops = []
        for k, op in enumerate(main):
            ops.append(op)
            if k % (STRATUM_EVERY - 1) == STRATUM_EVERY - 2:
                ops.append(stratum[k // (STRATUM_EVERY - 1)])
        return ops


# ---------------------------------------------------------------------------
# towers (ladder and exact)
# ---------------------------------------------------------------------------


def _rung_ops(name: str, p, gram, steps: int, exact: bool, top_dim: int) -> List[Op]:
    """One op per tower rung; each starts from the total of the previous rung."""
    c = ref.structure(name, p, exact=exact)
    g = np.asarray(gram, dtype=object if exact else float)
    state = {}
    ops = []
    for _ in range(steps):
        base_c, base_g = c, g
        u = ref.unimodular_vector(base_c, base_g, exact)
        unimod = ref.is_unimodular(base_c)
        c, g = ref.tangent_tensor(base_c), ref.block_gram(base_g)
        n = c.shape[0]
        exp = {"c": c, "exact": exact, "harmonic": unimod, "biharmonic": unimod,
               "tension": [-v for v in u], "submersion": True,
               "cone": ref.cone_dimension(c, np.asarray(g, float))}

        def run(first=not ops):
            if first:
                state["ela"] = _make_ela(name, p, gram, exact=exact)
            total, proj = L.build_semidirect(L.tangent_semidirect(state["ela"]))
            state["ela"] = total
            return total, L.classify(proj), L.harmonic_cone(total)
        ops.append(Op(f"rung.{name}", n, run, _rung_check, exp, top=n == top_dim))
    return ops


class Ladder:
    TAIL = 0.80                    # op_tail_ms percentile: the dim-24 rung, 2nd slowest of 7

    def __init__(self, seed: int, work_dir: str):
        self.seed = seed

    def cycle(self, index: int) -> List[Op]:
        rng = np.random.default_rng([self.seed, index])
        e1 = _rung_ops("e1", float(rng.uniform(0.5, 2.0)), rand_pd(rng, 2), 4, False, 32)
        heis = _rung_ops("heis3", float(rng.uniform(0.5, 2.0)), rand_pd(rng, 3), 3, False, 32)
        return e1 + heis


def _frac(rng, choices=(1, 2, 3, 4)) -> Fraction:
    return Fraction(int(rng.choice(choices)), int(rng.choice(choices)))


def _diag(values) -> list:
    n = len(values)
    return [[values[i] if i == j else Fraction(0) for j in range(n)] for i in range(n)]


class Exact:
    TAIL = 0.90                    # op_tail_ms percentile: the dim-6 rung, 2nd slowest of 15

    def __init__(self, seed: int, work_dir: str):
        self.seed = seed

    def cycle(self, index: int) -> List[Op]:
        rng = np.random.default_rng([self.seed, index])
        ops = _rung_ops("e1", Fraction(3, 2), _diag([Fraction(1)] * 2), 2, True, 8)
        ops += _rung_ops("heis3", Fraction(1), _diag([Fraction(1)] * 3), 1, True, 8)
        ops += [self._dimcheck(rng, name) for name in
                ("so3", "sl2", "heis3", "nilp5", "abelian")]
        ops += [self._character(rng, name) for name in ("heis3", "nilp5", "e1")]
        ops += [self._inner(rng, name, central) for name, central in
                (("heis3", True), ("heis3", False), ("nilp5", False))]
        ops.append(self._unimodular_e1(rng))
        order = rng.permutation(len(ops) - 3) + 3          # rungs first, in tower order
        return ops[:3] + [ops[i] for i in order]

    @staticmethod
    def _ela(name, p, diag, n=3):
        if name in ("so3", "sl2"):
            return L.get(name, alphas=tuple(diag), exact=True).ela
        return _make_ela(name, p, _diag(diag), n, exact=True)

    def _dimcheck(self, rng, name) -> Op:
        n = int(rng.integers(2, 5)) if name == "abelian" else ref.DIMS[name]
        if name == "so3":
            diag = [Fraction(v) for v in ((1, 2, 3), (1, 1, 2), (2, 3, 5), (1, 1, 1))[int(rng.integers(4))]]
        else:
            diag = [_frac(rng) for _ in range(n)]
        p = Fraction(1)
        c = ref.structure(name, p, n, exact=True)
        expected = ref.cone_dimension(c, np.diag([float(v) for v in diag]))

        def run():
            ela = self._ela(name, p, diag, n)
            return L.harmonic_cone(ela), L.harmonic_dimension_check(ela)
        return Op("exact.dimcheck", n, run, _dimcheck, expected)

    def _character(self, rng, name) -> Op:
        n = ref.DIMS[name]
        p = Fraction(3, 2) if name == "e1" else Fraction(1)
        diag = [_frac(rng) for _ in range(n)]
        c = ref.structure(name, p, exact=True)
        # the derived algebras here are spanned by basis vectors, so the
        # characters are the covectors supported on the other coordinates
        free = [k for k in range(n) if not c[:, :, k].any()]
        m = 1 if name == "e1" else 2
        xi = [[_frac(rng) if k in free else Fraction(0) for k in range(n)] for _ in range(m)]
        tgt_diag = [_frac(rng) for _ in range(m)]
        u = ref.unimodular_vector(c, _diag(diag), exact=True)
        tension = [-sum(row[j] * u[j] for j in range(n)) for row in xi]
        unimod = ref.UNIMODULAR[name]

        def run():
            src = self._ela(name, p, diag)
            tgt = self._ela("abelian", 1, tgt_diag, m)
            return L.classify(L.LieAlgebraMap(src, tgt, np.array(xi, dtype=object)))
        exp = {"harmonic": unimod, "biharmonic": True, "tension": tension, "exact": True}
        return Op("exact.classify", n, run, _flags_tension, exp)

    def _inner(self, rng, name, central) -> Op:
        n = ref.DIMS[name]
        diag = [_frac(rng) for _ in range(n)]
        u = [Fraction(0)] * n
        if central:
            u[ref.CENTER[name][0]] = _frac(rng)
        else:
            u = [_frac(rng) for _ in range(n)]

        def run():
            ela = self._ela(name, 1, diag)
            return L.inner_tension(L.exp_adjoint(ela, np.array(u, dtype=object)))
        return Op("exact.inner_tension", n, run, _zero_iff, {"zero": central, "exact": True})

    def _unimodular_e1(self, rng) -> Op:
        a, g0, g1 = _frac(rng), _frac(rng), _frac(rng)

        def run():
            return self._ela("e1", a, [g0, g1]).unimodular_vector()

        def check(out, exc, exp):
            return exc is None and _exact_eq(out, exp)
        return Op("exact.unimodular_vector", 2, run, check, [Fraction(0), -a / g1])


WORKLOADS = {"sweep": Sweep, "ladder": Ladder, "exact": Exact}
