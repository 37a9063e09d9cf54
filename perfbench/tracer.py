"""Spans around the calls into each lieharm layer, recorded from outside.

``Tracer.install`` replaces every public function of the ``lieharm`` modules
at every module binding that holds it (``semidirect.classify`` and
``cli.harmonic_cone`` are imported by name, so patching the defining module
alone would miss them), patches a fixed list of methods on their classes, and
wraps ``numpy.einsum`` and ``numpy.linalg.svd``.  ``uninstall`` restores the
originals, so untraced cycles run the unmodified program.

A span is ``(id, name, start, end, parent id, op id)``.  A layer's self time
is its span's duration minus the time covered by wrapped lieharm children;
numpy calls are counted and timed but are not children, so kernel time stays
in the self time of the lieharm function that issued it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict

MODULES = ("_linalg", "core", "maps", "cone", "semidirect", "catalog", "io", "cli")
#: Reported layer name of each module (metric names start with a letter).
LAYER = {m: m.lstrip("_") for m in MODULES}

#: Methods traced on their classes: (module, class, attribute).  Dataclass
#: validation runs in ``__post_init__`` and is reported as ``validate``.  Hot
#: one-line methods (``bracket``, ``basis``, ``ad``) are left alone so that
#: the loops calling them keep their cost as self time.
METHODS = (
    ("core", "LieAlgebra", "from_brackets"),
    ("core", "LieAlgebra", "from_tensor"),
    ("core", "InnerProduct", "__post_init__"),
    ("core", "EuclideanLieAlgebra", "levi_civita"),
    ("core", "EuclideanLieAlgebra", "metric_trace"),
    ("core", "EuclideanLieAlgebra", "unimodular_vector"),
    ("core", "EuclideanLieAlgebra", "is_unimodular"),
    ("core", "EuclideanLieAlgebra", "curvature"),
    ("core", "EuclideanLieAlgebra", "ricci_operator"),
    ("core", "EuclideanLieAlgebra", "killing_subalgebra"),
    ("maps", "LieAlgebraMap", "hom_defect"),
    ("cone", "Automorphism", "validate"),
    ("semidirect", "SemidirectData", "__post_init__"),
)

#: Public one-line helpers called in the inner loops (tens of thousands of
#: calls per cycle); wrapping them would mostly measure the wrapper.
LEAVES = {"_linalg": {"is_exact", "zeros", "eye", "as_matrix", "to_float", "norm",
                      "metric_norm"},
          "io": {"parse_scalar", "format_scalar"}}

NUMPY = (("numpy", "einsum"), ("numpy.linalg", "svd"))

#: Calls counted separately when they run beneath this span.
ANCHOR = "maps.classify"


#: Spans kept for the record; later ones are only counted as dropped.
MAX_SPANS = 50_000


class Tracer:
    def __init__(self):
        self.spans = []
        self.dropped = 0
        self.active = False            # only calls made inside an op are recorded
        self.op_id = -1
        self.op_self = defaultdict(float)
        self.op_calls = defaultdict(int)
        self.names = set()
        self._next_id = 0
        self._stack = []
        self._anchor_depth = 0
        self._patches = []
        self.reset_stats()

    def reset_stats(self) -> None:
        """Start a new accounting period (one workload cycle)."""
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.errors = defaultdict(int)
        self.under_anchor = defaultdict(int)
        self.numpy_calls = defaultdict(int)
        self.numpy_s = defaultdict(float)

    def start_op(self, op_id: int) -> None:
        self.op_id = op_id
        self.op_self = defaultdict(float)
        self.op_calls = defaultdict(int)

    # -- wrappers ---------------------------------------------------------

    def _span(self, name: str, fn):
        self.names.add(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            parent = self._stack[-1] if self._stack else None
            frame = [self._next_id, 0.0]              # id, child time
            self._next_id += 1
            self._stack.append(frame)
            anchor = name == ANCHOR
            if self._anchor_depth:
                self.under_anchor[name] += 1
            self._anchor_depth += anchor
            failed = True
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
                failed = False
                return out
            finally:
                end = time.perf_counter()
                self._anchor_depth -= anchor
                self._stack.pop()
                dur = end - start
                own = dur - frame[1]
                self.calls[name] += 1
                self.self_s[name] += own
                self.op_self[name] += own
                self.op_calls[name] += 1
                self.errors[name] += failed
                if parent is not None:
                    parent[1] += dur
                if len(self.spans) < MAX_SPANS:
                    self.spans.append((frame[0], name, start, end,
                                       parent[0] if parent else None, self.op_id))
                else:
                    self.dropped += 1
        return wrapper

    def _counter(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.numpy_s[name] += time.perf_counter() - start
                self.numpy_calls[name] += 1
        return wrapper

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type)
                              else getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Patch lieharm and numpy; idempotent until ``uninstall``."""
        if self._patches:
            return
        mods = {m: importlib.import_module(f"lieharm.{m}") for m in MODULES}
        wrapped = {}
        for short, mod in mods.items():
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_") and attr not in LEAVES.get(short, ())):
                    wrapped[obj] = self._span(f"{LAYER[short]}.{attr}", obj)
        bindings = [m for k, m in sys.modules.items()
                    if m is not None and (k == "lieharm" or k.startswith("lieharm."))]
        for mod in bindings:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._set(mod, attr, wrapped[obj])
        for short, cls_name, attr in METHODS:
            cls = getattr(mods[short], cls_name)
            raw = cls.__dict__[attr]
            label = "validate" if attr == "__post_init__" else attr
            name = f"{LAYER[short]}.{cls_name}.{label}"
            if isinstance(raw, staticmethod):
                self._set(cls, attr, staticmethod(self._span(name, raw.__func__)))
            else:
                self._set(cls, attr, self._span(name, raw))
        for mod_name, attr in NUMPY:
            mod = sys.modules[mod_name]
            self._set(mod, attr, self._counter(f"{mod_name}.{attr}", getattr(mod, attr)))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches = []

    def write_spans(self, path: str) -> None:
        """Spans as compact JSON: a name table and one row per span."""
        names = sorted({s[1] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        rows = [[s[0], index[s[1]], round(s[2], 7), round(s[3], 7), s[4], s[5]]
                for s in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["id", "name", "start", "end", "parent", "op"],
                       "names": names, "dropped": self.dropped, "spans": rows}, fh)
