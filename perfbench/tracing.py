"""Spans around the library's public functions, installed from outside.

A wrapped function gets one wrapper, and the wrapper replaces every reference
to the original that the package holds: the defining module, each module that
imported the function by name (``analysis`` and ``cli`` import
``build_covering_graph``, ``verify_type`` and others that way), the package
namespace, and module-level dicts such as the CLI's handler table. A wrapper
set only on the defining module would be bypassed by those names without any
error, which is why the benchmark also checks that each expected span fires.

Spans are kept in memory as ``[name, start, end, parent index, pass id]`` and
turned into per-layer totals when the run ends.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

Observe = Callable[["Tracer", object, tuple, dict], None]


class Tracer:
    """In-memory span recorder plus counters filled by result observers."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counts: Dict[str, int] = defaultdict(int)
        self.peaks: Dict[str, int] = defaultdict(int)
        self.pass_id: Optional[str] = None
        self._stack: List[int] = []

    def wrap(self, name: str, fn: Callable, observe: Optional[Observe]) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            spans, stack = tracer.spans, tracer._stack
            index = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, tracer.pass_id])
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index][1] = start
                spans[index][2] = end
            if observe is not None:
                observe(tracer, result, args, kwargs)
            return result

        return wrapper

    def layer_totals(self) -> Dict[str, Dict[str, float]]:
        """{span name: {"calls": n, "self_s": seconds}} over all spans.

        Self time is a span's duration minus the part of it that its direct
        child spans cover.
        """
        children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
        for span in self.spans:
            if span[3] >= 0:
                children[span[3]].append((span[1], span[2]))
        totals: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "self_s": 0.0}
        )
        for index, (name, start, end, _parent, _pass) in enumerate(self.spans):
            covered = _union_length(children.get(index, ()), start, end)
            entry = totals[name]
            entry["calls"] += 1
            entry["self_s"] += (end - start) - covered
        return totals


def _union_length(intervals, lo: float, hi: float) -> float:
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def install(tracer: Tracer, package: str, targets) -> List[tuple]:
    """Wrap each ``(span name, module, attribute path, observer)`` target.

    Returns the undo list for ``uninstall``. A missing target raises, so a
    renamed entry point cannot drop out of the trace unnoticed.
    """
    modules = [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == package or name.startswith(package + "."))
    ]
    undo: List[tuple] = []
    for span_name, module_name, attr, observe in targets:
        holder = sys.modules[f"{package}.{module_name}"]
        *owners, leaf = attr.split(".")
        for owner in owners:
            holder = getattr(holder, owner)
        original = getattr(holder, leaf)
        wrapper = tracer.wrap(span_name, original, observe)
        if owners:  # a method: calls go through the class attribute
            undo.append((setattr, holder, leaf, original))
            setattr(holder, leaf, wrapper)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    undo.append((setattr, mod, key, original))
                    setattr(mod, key, wrapper)
                elif type(value) is dict:
                    for k, v in value.items():
                        if v is original:
                            undo.append((dict.__setitem__, value, k, original))
                            value[k] = wrapper
    return undo


def uninstall(undo: List[tuple]) -> None:
    for restore, holder, key, original in reversed(undo):
        restore(holder, key, original)
