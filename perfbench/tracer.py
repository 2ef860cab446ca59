"""Spans and counters recorded around nilcone's public functions.

The package itself is not edited: ``install`` replaces every public
function bound in a ``nilcone`` module namespace, and the public methods
of ``GroupLaw``, with a wrapper that records one span per call.  Spans
are aggregated in memory by (caller, callee) edge, each edge keeping its
call count, inclusive time and self time (inclusive minus the time of
its traced children), and are written out when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import os
import time
import types


class Tracer:
    """In-memory span aggregation for one process."""

    def __init__(self):
        self.edges: dict[tuple[str, str], list[int]] = {}
        self.counters: dict[str, int] = {}
        self._stack: list[list] = []
        self._counts: dict[str, tuple[str, object]] = {}
        self.wrapped = 0  # functions wrapped by the last install

    def reset(self) -> None:
        self.edges.clear()
        self.counters.clear()

    def count(self, span: str, key: str, amount) -> None:
        """After each call of span, add amount(args, result) to key."""
        self._counts[span] = (key, amount)

    def wrap(self, name, fn, classify=None):
        """Wrapper of fn recording a span named name (or classify(args))."""
        edges, counters, stack = self.edges, self.counters, self._stack
        counts = self._counts
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = classify(args) if classify is not None else name
            parent = stack[-1][0] if stack else ""
            frame = [span, 0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                edge = edges.get((parent, span))
                if edge is None:
                    edge = edges[(parent, span)] = [0, 0, 0]
                edge[0] += 1
                edge[1] += dt
                edge[2] += dt - frame[1]
            counted = counts.get(span)
            if counted is not None:
                key, amount = counted
                counters[key] = counters.get(key, 0) + amount(args, result)
            return result

        return traced

    # ------------------------------------------------------------ summaries

    def calls(self, span: str) -> int:
        return sum(e[0] for (_, s), e in self.edges.items() if s == span)

    def inclusive_s(self, span: str) -> float:
        """Inclusive time of the outermost calls of span."""
        return sum(e[1] for (p, s), e in self.edges.items()
                   if s == span and p != span) / 1e9

    def self_s_by_layer(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for (_, span), e in self.edges.items():
            layer = span.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + e[2] / 1e9
        return out

    def dump(self) -> dict:
        return {
            "edges": [
                {"caller": p, "callee": s, "calls": e[0],
                 "inclusive_s": e[1] / 1e9, "self_s": e[2] / 1e9}
                for (p, s), e in sorted(self.edges.items())
            ],
            "counters": dict(sorted(self.counters.items())),
        }


def _law_classify(method: str):
    exact = f"bch.GroupLaw.{method}[exact]"
    flt = f"bch.GroupLaw.{method}[float]"

    def classify(args):
        # A call is float if any coordinate of either operand is: float
        # words start from identity(), whose coordinates are Fractions.
        for a in args[1:3]:
            if isinstance(a, (tuple, list)) and any(isinstance(c, float) for c in a):
                return flt
        return exact
    return classify


def install(tracer: Tracer, modules) -> int:
    """Wrap the public functions of the given nilcone modules in place.

    A function bound under a public name in several modules (as with
    ``from .bch import get_group``) gets one wrapper, installed in every
    namespace that binds it.  Returns the number of wrapped functions.
    """
    wrappers: dict[int, object] = {}
    for mod in modules:
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or not isinstance(obj, types.FunctionType):
                continue
            if not obj.__module__.startswith("nilcone"):
                continue
            w = wrappers.get(id(obj))
            if w is None:
                layer = obj.__module__.rsplit(".", 1)[-1]
                w = wrappers[id(obj)] = tracer.wrap(f"{layer}.{obj.__name__}", obj)
            setattr(mod, attr, w)
    law_cls = next(m.GroupLaw for m in modules if hasattr(m, "GroupLaw"))
    for method, fn in inspect.getmembers(law_cls, inspect.isfunction):
        if not method.startswith("_"):
            setattr(law_cls, method,
                    tracer.wrap(None, fn, classify=_law_classify(method)))
            wrappers[id(fn)] = fn
    for span, idx in (("kernels.bch_batch", 1), ("kernels.translate_batch", 2),
                      ("kernels.reduce_batch", 3), ("kernels.fold_digits", 2)):
        tracer.count(span, span + ":rows",
                     lambda args, result, _i=idx: len(args[_i]))
    tracer.count("coupling.domain_samples", "coupling.domain_samples:rows",
                 lambda args, result: int(result.shape[0]))
    for span in ("reports.write_csv", "reports.write_json", "reports.write_svg"):
        tracer.count(span, "reports:bytes",
                     lambda args, result: os.path.getsize(result))
    return len(wrappers)
