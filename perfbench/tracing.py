"""Traced run: spans around homlie's public layer boundaries.

The tracer replaces each spanned public function at every homlie module
that binds it (plus ``Matrix.matmul`` and ``Subspace.from_vectors``),
records one span per call in memory with a link to its parent span, and
restores the originals afterwards.  Nothing under ``src/`` is changed.
A span's self time is its duration minus the time its child spans
cover, tracer bookkeeping included, so a layer is not charged for the
tracer's own work inside it.
"""

from __future__ import annotations

import sys
from array import array
from collections import Counter
from time import perf_counter

# public functions spanned, by the homlie module that defines them
SPANNED = {
    "linalg": ("rref", "nullspace", "contains", "subspace_intersection"),
    "spaces": ("solve_space", "check_inclusion_chain", "check_bracket_laws",
               "check_qc_structure", "hom_jordan_residual",
               "supercommutator", "compose", "jordan_product"),
    "extension": ("build_extended", "verify_phi_properties",
                  "verify_embedding_decomposition"),
    "algebra": ("validate", "center"),
    "fileformat": ("parse_algebra",),
    "cli": ("main",),
}
SPANNED_METHODS = (("linalg", "Matrix", "matmul"),
                   ("linalg", "Subspace", "from_vectors"))
PRODUCTS = ("spaces.supercommutator", "spaces.compose", "spaces.jordan_product")

# (name, unit) of every per-layer metric, in report order
LAYER_METRICS = (
    ("linalg.rref.calls", "count"), ("linalg.rref.self_s", "s"),
    ("linalg.rref.cells", "count"), ("linalg.rref.nnz_ratio", "ratio"),
    ("linalg.nullspace.calls", "count"), ("linalg.nullspace.self_s", "s"),
    ("linalg.contains.calls", "count"), ("linalg.contains.self_s", "s"),
    ("linalg.contains.true_ratio", "ratio"),
    ("linalg.matmul.calls", "count"), ("linalg.matmul.self_s", "s"),
    ("linalg.from_vectors.calls", "count"),
    ("linalg.from_vectors.self_s", "s"),
    ("linalg.subspace_intersection.calls", "count"),
    ("linalg.subspace_intersection.self_s", "s"),
    ("spaces.solve_space.calls", "count"),
    ("spaces.solve_space.misses", "count"),
    ("spaces.solve_space.self_s", "s"),
    ("spaces.solve_space.system_rows", "count"),
    ("spaces.solve_space.system_unknowns", "count"),
    ("spaces.solve_space.system_nnz", "count"),
    ("spaces.solve_space.distinct_ratio", "ratio"),
    ("spaces.check_inclusion_chain.self_s", "s"),
    ("spaces.check_bracket_laws.self_s", "s"),
    ("spaces.check_qc_structure.self_s", "s"),
    ("spaces.hom_jordan_residual.calls", "count"),
    ("spaces.hom_jordan_residual.self_s", "s"),
    ("spaces.products.calls", "count"),
    ("extension.build_extended.self_s", "s"),
    ("extension.verify_phi_properties.self_s", "s"),
    ("extension.verify_embedding_decomposition.self_s", "s"),
    ("algebra.validate.calls", "count"), ("algebra.validate.self_s", "s"),
    ("algebra.center.calls", "count"),
    ("fileformat.parse_algebra.self_s", "s"),
    ("cli.main.self_s", "s"),
    ("trace.overhead_s", "s"),
)


def homlie_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if name == "homlie" or name.startswith("homlie.")]


def discover_caches() -> dict[str, object]:
    """Every functools cache bound in a homlie module or on one of its
    classes, by qualified name."""
    found = {}
    for mod in homlie_modules():
        owners = [vars(mod)] + [vars(v) for v in vars(mod).values()
                                if isinstance(v, type)
                                and v.__module__ == mod.__name__]
        for namespace in owners:
            for obj in namespace.values():
                obj = getattr(obj, "__func__", obj)
                if (callable(getattr(obj, "cache_clear", None))
                        and callable(getattr(obj, "cache_info", None))
                        and getattr(obj, "__module__", "").startswith("homlie")):
                    name = f"{obj.__module__.removeprefix('homlie.')}." \
                           f"{obj.__qualname__}"
                    found[name] = obj
    return found


def _nnz(m) -> int:
    return sum(1 for x in m.entries if x)


class Tracer:
    """In-memory spans with parent links, plus counters kept at the same
    boundaries."""

    def __init__(self, caches: dict[str, object]):
        self.caches = caches
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.outer = array("d")
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.distinct_by_op: dict[int, tuple[int, int]] = {}
        self.op_index = -1
        self._solved: list = []
        self._cache_before: dict[str, int] = {}
        self._patches: list = []

    # -- spans -----------------------------------------------------------

    def _wrap(self, name: str, fn, before=None, after=None):
        nid = len(self.names)
        self.names.append(name)
        names, parent, op = self.name, self.parent, self.op
        start, end, outer, stack = self.start, self.end, self.outer, self.stack

        def traced(*args, **kwargs):
            o0 = perf_counter()
            idx = len(start)
            names.append(nid)
            parent.append(stack[-1] if stack else -1)
            op.append(self.op_index)
            start.append(0.0)
            end.append(0.0)
            outer.append(0.0)
            state = before(args) if before else None
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if after:
                after(args, result, state)
            outer[idx] = perf_counter() - o0
            return result

        traced.__wrapped__ = fn
        return traced

    def _parent_name(self) -> str:
        return self.names[self.name[self.stack[-1]]] if self.stack else ""

    def _hooks(self, name: str, fn):
        counts = self.counts
        if name == "linalg.rref":
            def before(args):
                m = args[0]
                counts["rref.cells"] += m.rows * m.cols
                counts["rref.nnz"] += _nnz(m)
            return before, None
        if name == "linalg.nullspace":
            def before(args):
                if self._parent_name() == "spaces.solve_space":
                    m = args[0]
                    counts["system.rows"] += m.rows
                    counts["system.unknowns"] += m.cols
                    counts["system.nnz"] += _nnz(m)
            return before, None
        if name == "linalg.contains":
            def after(args, result, state):
                counts["contains.true"] += bool(result)
            return None, after
        if name == "spaces.solve_space":
            def before(args):
                return fn.cache_info().misses

            def after(args, result, misses):
                if fn.cache_info().misses > misses:
                    self._solved.append((args[0], result.kind, result.degree,
                                         result.strict, result.tuples))
            return before, after
        return None, None

    def install(self) -> None:
        modules = homlie_modules()
        for modname, fnames in SPANNED.items():
            home = sys.modules[f"homlie.{modname}"]
            for fname in fnames:
                orig = getattr(home, fname)
                name = f"{modname}.{fname}"
                wrapped = self._wrap(name, orig, *self._hooks(name, orig))
                for mod in modules:
                    for attr, val in list(vars(mod).items()):
                        if val is orig:
                            self._patches.append((mod, attr, val))
                            setattr(mod, attr, wrapped)
        for modname, cls, meth in SPANNED_METHODS:
            klass = getattr(sys.modules[f"homlie.{modname}"], cls)
            raw = klass.__dict__[meth]
            name = f"{modname}.{meth}"
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(name, raw.__func__))
            else:
                wrapped = self._wrap(name, raw)
            self._patches.append((klass, meth, raw))
            setattr(klass, meth, wrapped)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, val = self._patches.pop()
            setattr(owner, attr, val)

    # -- operations ------------------------------------------------------

    def begin_op(self, index: int) -> None:
        self.op_index = index
        self._solved = []
        self._cache_before = {n: c.cache_info().misses
                              for n, c in self.caches.items()}

    def end_op(self) -> None:
        for n, c in self.caches.items():
            self.counts[f"cache.{n}.misses"] += (c.cache_info().misses
                                                 - self._cache_before[n])
        distinct, total = len(set(self._solved)), len(self._solved)
        self.distinct_by_op[self.op_index] = (distinct, total)
        self.counts["solved.distinct"] += distinct
        self.counts["solved.total"] += total
        self.op_index = -1

    # -- results ---------------------------------------------------------

    def layer_totals(self) -> tuple[Counter, Counter]:
        """(calls, self seconds) per span name."""
        n = len(self.start)
        own = [self.end[i] - self.start[i] for i in range(n)]
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                own[p] -= self.outer[i]
        calls: Counter = Counter()
        self_s: Counter = Counter()
        for i in range(n):
            name = self.names[self.name[i]]
            calls[name] += 1
            self_s[name] += own[i]
        return calls, self_s

    def metrics(self, overhead_s: float) -> dict[str, float]:
        calls, self_s = self.layer_totals()
        c = self.counts

        def ratio(num, den):
            return num / den if den else 0.0

        out = {}
        for name, unit in LAYER_METRICS:
            layer, _, field = name.rpartition(".")
            if field == "calls":
                value = calls[layer]
            elif field == "self_s":
                value = float(self_s[layer])
            else:
                value = None
            out[name] = value
        out.update({
            "linalg.rref.cells": c["rref.cells"],
            "linalg.rref.nnz_ratio": ratio(c["rref.nnz"], c["rref.cells"]),
            "linalg.contains.true_ratio": ratio(c["contains.true"],
                                                calls["linalg.contains"]),
            "spaces.solve_space.misses": c["cache.spaces.solve_space.misses"],
            "spaces.solve_space.system_rows": c["system.rows"],
            "spaces.solve_space.system_unknowns": c["system.unknowns"],
            "spaces.solve_space.system_nnz": c["system.nnz"],
            "spaces.solve_space.distinct_ratio": ratio(c["solved.distinct"],
                                                       c["solved.total"]),
            "spaces.products.calls": sum(calls[p] for p in PRODUCTS),
            "trace.overhead_s": overhead_s,
        })
        return out
