"""Per-layer metrics: the counters filled from wrapped calls' results, and the
metrics of one traced round. Their names and units are listed in the
``per_layer`` part of BENCHMARK.json."""

from __future__ import annotations

import os
from typing import Dict

from tracing import Tracer
from workloads import SPAN_TARGETS

# Work counts that do not depend on the machine; they must repeat exactly
# across passes and runs of the same code.
REPEAT_COUNTS = (
    "plmap.branches_made",
    "plmap.refine_steps",
    "plmap.laps_final",
    "covering.edges",
    "construct.breakpoints",
)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _branches(tracer: Tracer, result, args, kwargs):
    made = len(result)
    tracer.counts["plmap.branches_made"] += made
    tracer.counts["plmap.refine_steps"] += _arg(args, kwargs, 1, "q") - 1
    tracer.peaks["plmap.branches_peak"] = max(tracer.peaks["plmap.branches_peak"], made)


def _add(counter, measure):
    def observe(tracer: Tracer, result, args, kwargs):
        tracer.counts[counter] += measure(result, args, kwargs)
    return observe


def _peak(counter, measure):
    def observe(tracer: Tracer, result, args, kwargs):
        tracer.peaks[counter] = max(tracer.peaks[counter], measure(result))
    return observe


OBSERVERS = {
    "construct.odd_type_map": _add(
        "construct.breakpoints", lambda r, a, k: len(r.map.breakpoints)),
    "construct.square_root": _add(
        "construct.breakpoints", lambda r, a, k: len(r.breakpoints)),
    "document.save_document": _add(
        "document.bytes_written", lambda r, a, k: os.path.getsize(_arg(a, k, 1, "path"))),
    "plmap.branches_of_iterate": _branches,
    "plmap.periodic_points": _add("plmap.fixed_points", lambda r, a, k: len(r)),
    "plmap.lap_growth": _add("plmap.laps_final", lambda r, a, k: r[-1]),
    "covering.build_covering_graph": _add("covering.edges", lambda r, a, k: len(r.edges)),
    "covering.primitive_cycle_census": _add(
        "covering.cycles", lambda r, a, k: sum(r.values())),
    # q_max - 1 refinement steps are all one pass over the iterates needs
    "analysis.verify_type": _add("plmap.refine_useful", lambda r, a, k: r.q_max - 1),
    "analysis.verify_mixing": _peak("analysis.mixing_max_n", lambda r: r.max_n or 0),
}

INSTALL_TARGETS = [
    (span, module, attr, OBSERVERS.get(span)) for span, module, attr in SPAN_TARGETS
]

def round_metrics(tracer: Tracer, branch_cap: int) -> Dict[str, float]:
    """Span and counter metrics of one traced round (set-up plus pass)."""
    totals = tracer.layer_totals()
    out: Dict[str, float] = {}
    for span, _module, _attr in SPAN_TARGETS:
        entry = totals.get(span, {"calls": 0, "self_s": 0.0})
        out[f"{span}.calls"] = entry["calls"]
        out[f"{span}.self_s"] = entry["self_s"]
    counts, peaks = tracer.counts, tracer.peaks
    for name in ("plmap.branches_made", "plmap.refine_steps", "plmap.fixed_points",
                 "plmap.laps_final", "covering.edges", "covering.cycles",
                 "construct.breakpoints", "document.bytes_written"):
        out[name] = counts[name]
    out["plmap.branches_peak"] = peaks["plmap.branches_peak"]
    out["plmap.branches_peak_share"] = peaks["plmap.branches_peak"] / branch_cap
    out["analysis.mixing_max_n"] = peaks["analysis.mixing_max_n"]
    steps = counts["plmap.refine_steps"]
    # 0 when nothing went through branches_of_iterate
    out["plmap.refine_useful_ratio"] = counts["plmap.refine_useful"] / steps if steps else 0.0
    return out
