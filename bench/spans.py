"""Outside-in tracing: timing wrappers installed on the package's public
functions from the benchmark's own code, so nothing under src/ changes.

A span records (name, start, end, parent, case).  Spans are kept in memory
and written out once, when the sweep ends.  A layer's self time is its
span's duration minus the part of that interval its child spans cover.
"""
from __future__ import annotations

import gzip
import inspect
import json
import sys
import time
from collections import defaultdict

# Public functions that get a layer span, as (module, function).  Every
# module that bound one of them at import is patched as well, so a call
# through, for example, closedform.corollary1_reduce is seen too.
LAYER_FUNCTIONS = (
    ("numeric", "tornheim_q_info"),
    ("numeric", "q_zeta2_info"),
    ("numeric", "phi_q_info"),
    ("numeric", "q_zeta1_info"),
    ("numeric", "evaluate_reduction"),
    ("numeric", "classical_double_euler"),
    ("numeric", "classical_zeta"),
    ("numeric", "tornheim_classical"),
    ("exact", "expr_numeric"),
    ("closedform", "double_euler_closed"),
    ("closedform", "tornheim_closed"),
    ("reduction", "theorem1_reduce"),
    ("reduction", "corollary1_reduce"),
)

# Layers whose repeated inputs are counted, keyed by their full argument list.
REPEAT_LAYERS = frozenset({
    "closedform.double_euler_closed",
    "numeric.classical_double_euler",
    "numeric.classical_zeta",
})

# Layers whose result reports its own work as a term count.
TERM_LAYERS = {
    "numeric.tornheim_q_info": lambda result: result.terms,
    "numeric.q_zeta2_info": lambda result: result.terms,
    "numeric.phi_q_info": lambda result: result.terms,
    "numeric.q_zeta1_info": lambda result: result.terms,
    "reduction.theorem1_reduce": lambda result: len(result.terms),
}

RING_CLASS = "exact.ZetaExpression"
RING_OPERATORS = ("__add__", "__sub__", "__neg__", "__mul__", "__rmul__")


class RepeatCounter:
    """Share of observed keys that were already seen earlier in the sweep."""

    def __init__(self) -> None:
        self.seen: set = set()
        self.total = 0
        self.repeats = 0

    def observe(self, key) -> bool:
        self.total += 1
        if key in self.seen:
            self.repeats += 1
            return True
        self.seen.add(key)
        return False

    @property
    def frac(self) -> float:
        return self.repeats / self.total if self.total else 0.0


class Tracer:
    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[list] = []  # [name, start, end, parent index, case id]
        self.stack: list[int] = []
        self.case = None
        self.terms: dict[str, int] = defaultdict(int)
        self.repeats: dict[str, RepeatCounter] = defaultdict(RepeatCounter)
        self.term_repeats: dict[str, RepeatCounter] = defaultdict(RepeatCounter)
        self._in_ring_op = False
        self._undo: list[tuple] = []

    # -- spans -----------------------------------------------------------

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, self.clock(), None, parent, self.case])
        self.stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = self.clock()
        self.stack.pop()

    # -- wrappers --------------------------------------------------------

    def wrap(self, name: str, fn):
        signature = inspect.signature(fn)
        count_terms = TERM_LAYERS.get(name)
        repeats = self.repeats[name] if name in REPEAT_LAYERS else None

        def traced(*args, **kwargs):
            if repeats is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                repeats.observe(tuple(bound.arguments.values()))
            if name == "numeric.evaluate_reduction":
                self._observe_reduction_terms(signature, args, kwargs)
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if count_terms is not None:
                self.terms[name] += count_terms(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _observe_reduction_terms(self, signature, args, kwargs) -> None:
        """term_repeat_frac: a reduction term repeats when the same term kind
        was already evaluated at the same q and precision in this sweep."""
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        reduction, q, prec = (bound.arguments[k] for k in ("reduction", "q", "prec"))
        counter = self.term_repeats["numeric.evaluate_reduction"]
        for _, kind in reduction.terms:
            counter.observe((kind, str(q), prec))

    def wrap_ring_op(self, fn):
        """Ring operators nest (a - b is a + (-b)); only the outermost counts."""

        def traced(*args, **kwargs):
            if self._in_ring_op:
                return fn(*args, **kwargs)
            self._in_ring_op = True
            index = self.open(RING_CLASS)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(index)
                self._in_ring_op = False

        traced.__wrapped__ = fn
        return traced

    def install(self, package: str = "tornheim") -> None:
        """Patch each layer function in its defining module and in every
        loaded package module that bound the same object at import."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == package or n.startswith(package + "."))]
        for module_name, attr in LAYER_FUNCTIONS:
            original = getattr(sys.modules[f"{package}.{module_name}"], attr)
            traced = self.wrap(f"{module_name}.{attr}", original)
            for module in modules:
                if getattr(module, attr, None) is original:
                    self._undo.append((module, attr, original))
                    setattr(module, attr, traced)
        cls = sys.modules[f"{package}.exact"].ZetaExpression
        for op in RING_OPERATORS:
            original = cls.__dict__[op]
            self._undo.append((cls, op, original))
            setattr(cls, op, self.wrap_ring_op(original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- results ---------------------------------------------------------

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls and self_s, plus terms and the raw repeat
        counts (repeats, observed) where the layer keeps them."""
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
        for span, self_s in zip(self.spans, self_times(self.spans)):
            entry = out[span[0]]
            entry["calls"] += 1
            entry["self_s"] += self_s
        for name, terms in self.terms.items():
            out[name]["terms"] = terms
        for key, counters in (("repeat", self.repeats), ("term_repeat", self.term_repeats)):
            for name, counter in counters.items():
                out[name][key] = [counter.repeats, counter.total]
        return dict(out)

    def dump(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "case"],
                       "spans": self.spans}, fh, separators=(",", ":"))


def self_times(spans) -> list[float]:
    """Duration of each span minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span[3] >= 0:
            children[span[3]].append((span[1], span[2]))
    out = []
    for index, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        cursor = start
        for lo, hi in sorted(children.get(index, ())):
            lo, hi = max(lo, cursor), min(hi, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((end - start) - covered)
    return out
