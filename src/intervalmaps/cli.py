"""Command-line front end: construct maps, certify them, sweep grids, plot.

Exit codes: 0 success, 1 usage or I/O error, 2 certification refuted,
3 budget exceeded (inconclusive). analyze and each sweep cell certify through
_certify, which gives 2 for a refuted type or a seed that never covers and 3
for an inconclusive type, the larger when both; an error row counts 2, and
sweep exits with its worst cell's code.

main pauses CPython's cyclic garbage collector for the command it runs. A
command's allocations are acyclic, so reference counting frees them when it
returns: with the collector off, gc.collect() afterwards finds 33 unreachable
objects (one closure cycle of json's indenting encoder) after analyze at any
--type depth and 33 per sweep cell. Left on, the collector starts on the
branch pass's many allocations, the (Fraction, int) periodic points above
all, and re-traverses the iterates and Fix records still live each time:
measured on CPython 3.11, 6% of the analyze --type 11 --mixing --graph pass
over f52 and f72 (15 youngest- and one middle-generation collections), and
on f52 alone 12% of --type 13, 21% of --type 15 and 31% of --type 16. A
forked sweep worker inherits the paused collector for the pool's lifetime,
and its cells leave the same few objects each.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import math
import os
import sys
from typing import List, Optional, Tuple, Union

from .analysis import (
    DEFAULT_Q_MAX,
    estimate_entropy,
    verify_mixing,
    verify_type,
)
from .construct import ConstructionParams, parse_slope_text
from .covering import EDGE_FULL, EDGE_PARTIAL, build_covering_graph
from .document import document_for, load_document, save_document, write_text_atomic
from .kernel import Scalar, minimal_slope, scalar_to_str
from .plmap import (
    DEFAULT_BRANCH_CAP,
    BranchBudgetError,
    FixedPointContinuumError,
    OrbitNotClosedError,
)
from .plotsvg import render_map_svg

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_REFUTED = 2
EXIT_BUDGET = 3
_VERDICT_EXIT = {"consistent": EXIT_OK, "refuted": EXIT_REFUTED, "inconclusive": EXIT_BUDGET}


class _UsageError(Exception):
    pass


def _csv_quote(field: str) -> str:
    if any(ch in field for ch in ',"\n'):
        return '"' + field.replace('"', '""') + '"'
    return field


class _Parser(argparse.ArgumentParser):
    # argparse would exit(2); 2 is reserved for refuted certifications
    def error(self, message):
        raise _UsageError(message)


def _at_least(flag: str, least: int, what: str = ""):
    """argparse type of an int flag whose value below least is a usage error.
    argparse turns only ValueError and TypeError into its own "invalid int
    value" message, so _UsageError goes through parse_args to main."""
    def check(text: str) -> int:
        value = int(text)
        if value < least:
            raise _UsageError(f"{flag} must be {what or f'>= {least}'}, got {value}")
        return value

    check.__name__ = "int"
    return check


def _width(flag: str, text: str) -> str:
    """A mixing seed width text, checked to parse as a slope > 0. lambda_p is
    positive for every p, so p = 3 checks it; analyze and each sweep cell
    parse the text again for their own p."""
    try:
        ok = parse_slope_text(text, 3) > 0
    except ValueError:
        ok = False
    if not ok:
        raise _UsageError(f"{flag} must be a positive number, got {text}")
    return text


def _comma_list(flag: str, item, what: str):
    """argparse type of a comma list, empty items skipped, item parsing each."""
    def parse(text: str) -> list:
        try:
            return [item(x) for x in text.split(",") if x.strip()]
        except ValueError:
            raise _UsageError(f"{flag} must be a comma list of {what}, got {text}") from None

    return parse


def _target_entropy(text: str) -> Tuple[str, float]:
    h = float(text)
    if not h > 0:
        raise _UsageError("target entropies must be positive")
    if not math.isfinite(h):
        raise _UsageError(f"target entropy {text.strip()} is not finite")
    return text.strip(), h


@functools.cache
def _build_parser() -> _Parser:
    """The parser, built once: parse_args keeps no state between calls."""
    ap = _Parser(
        prog="intervalmaps",
        description="Construct and certify piecewise-linear interval maps of "
        "prescribed type and entropy.",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    branch_cap = _at_least("--branch-cap", 1, "a positive integer")

    c = sub.add_parser("construct", help="build a map and write its document")
    c.add_argument("--p", type=int, required=True, help="odd base period (>= 3)")
    c.add_argument("--d", type=int, default=0, help="number of square-root doublings")
    c.add_argument(
        "--lambda",
        dest="slope_text",
        default="2",
        help="slope: 'a/b' or integer (exact), decimal (floating), or 'lambda_p'",
    )
    c.add_argument(
        "--rescale",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="conjugate each square root back to [0,1]",
    )
    c.add_argument("--out", default=None, help="document path (default: stdout)")

    a = sub.add_parser("analyze", help="run certifications on a document")
    a.add_argument("path", help="map document to analyze")
    a.add_argument("--entropy", type=_at_least("--entropy", 3), metavar="N_MAX")
    a.add_argument("--type", dest="type_q", type=_at_least("--type", 1), metavar="Q_MAX")
    a.add_argument(
        "--mixing",
        nargs=3,
        default=None,
        metavar=("WIDTH", "GRID", "CAP"),
        help="seed width, grid size, iteration cap; a rational document is "
        "traced exactly, a decimal width taken at its binary64 value, and "
        "'a/b' gives round seeds",
    )
    a.add_argument("--graph", default=None, metavar="DOT_PATH")
    a.add_argument("--csv", dest="csv_path", default=None, metavar="CSV_PATH")
    a.add_argument("--branch-cap", type=branch_cap, default=DEFAULT_BRANCH_CAP)

    s = sub.add_parser("sweep", help="construct and certify a parameter grid")
    ints = functools.partial(_comma_list, item=int, what="integers")
    s.add_argument("--p", type=ints("--p"), default="3", help="comma list of odd periods")
    s.add_argument("--d", type=ints("--d"), default="0", help="comma list of doubling counts")
    s.add_argument(
        "--lambda",
        dest="slope_list",
        default="2",
        help="comma list of slopes (same forms as construct)",
    )
    s.add_argument(
        "--target-entropy",
        type=_comma_list("--target-entropy", _target_entropy, "positive numbers"),
        default=None,
        help="comma list of entropies; overrides the grid, solving p=3, "
        "d, lambda = exp(2^d h) per value",
    )
    s.add_argument("--out-dir", required=True)
    s.add_argument("--entropy-n", type=_at_least("--entropy-n", 3), default=12)
    s.add_argument("--type-q", type=_at_least("--type-q", 1), default=DEFAULT_Q_MAX)
    s.add_argument(
        "--mixing-width", type=functools.partial(_width, "--mixing-width"), default="1/1024"
    )
    s.add_argument("--mixing-grid", type=_at_least("--mixing-grid", 1), default=16)
    s.add_argument("--mixing-cap", type=_at_least("--mixing-cap", 1), default=200)
    s.add_argument("--workers", type=_at_least("--workers", 1), default=1)
    s.add_argument("--branch-cap", type=branch_cap, default=DEFAULT_BRANCH_CAP)

    p = sub.add_parser("plot", help="render a document as SVG")
    p.add_argument("path", help="map document to plot")
    p.add_argument("--out", required=True, help="SVG path")

    return ap


# ---------------------------------------------------------------- construct


def cmd_construct(args) -> int:
    slope = parse_slope_text(args.slope_text, args.p)
    params = ConstructionParams(args.p, args.d, slope, args.rescale)
    doc = document_for(params)
    summary = (
        f"constructed map: type {params.type_value}, "
        f"target entropy log({scalar_to_str(params.slope)})/2^{params.doublings} "
        f"= {params.target_entropy:.6f}, {len(doc.map.breakpoints)} breakpoints"
    )
    if args.out:
        save_document(doc, args.out)
        print(summary)
    else:
        sys.stdout.write(doc.to_json())
        print(summary, file=sys.stderr)
    return EXIT_OK


# ---------------------------------------------------------------- analyze


def _mixing_args(texts: List[str], p: int) -> tuple:
    """WIDTH, GRID and CAP of --mixing, checked before any certificate runs."""
    width_text, *count_texts = texts
    _width("--mixing WIDTH", width_text)
    counts = []
    for name, text in zip(("GRID", "CAP"), count_texts):
        try:
            value = int(text)
        except ValueError:
            value = 0
        if value < 1:
            raise _UsageError(f"--mixing {name} must be an integer >= 1, got {text}")
        counts.append(value)
    return (parse_slope_text(width_text, p), *counts)


def _certify(doc, entropy_n, type_q, mixing, cap) -> tuple:
    """The EntropyEstimate, TypeReport and MixingReport asked for, None for
    each not asked, and the exit code of their verdicts. mixing is (width,
    grid, cap) or None; the type check gets the markers' partition if any."""
    m, params = doc.map, doc.params
    est = tr = mr = None
    code = EXIT_OK
    if entropy_n is not None:
        est = estimate_entropy(m, entropy_n, target=params.target_entropy, branch_cap=cap)
    if type_q is not None:
        partition = doc.markers.partition() if doc.markers else None
        tr = verify_type(m, params.type_value, type_q, partition=partition, branch_cap=cap)
        code = _VERDICT_EXIT[tr.verdict]
    if mixing is not None:
        mr = verify_mixing(m, *mixing)
        if not mr.all_covered:
            code = max(code, EXIT_REFUTED)
    return est, tr, mr, code


def cmd_analyze(args) -> int:
    if args.csv_path is not None and args.entropy is None:
        raise _UsageError("--csv requires --entropy")
    doc = load_document(args.path)
    if args.graph is not None and doc.markers is None:
        raise _UsageError("--graph needs a document with interval markers (d = 0)")
    mixing = None if args.mixing is None else _mixing_args(args.mixing, doc.params.p)
    est, tr, mr, code = _certify(doc, args.entropy, args.type_q, mixing, args.branch_cap)
    report: dict = {"path": args.path, "type_claim": doc.params.type_value}

    if est is not None:
        report["entropy"] = est.as_dict()
        if args.csv_path is not None:
            lines = ["n,lap_count,log_ratio"]
            for n, lap in enumerate(est.laps, start=1):
                ratio = "" if n == 1 else f"{est.log_ratios[n - 2]:.12g}"
                lines.append(f"{n},{lap},{ratio}")
            write_text_atomic(args.csv_path, "\n".join(lines) + "\n")

    if tr is not None:
        report["type"] = tr.as_dict()
        if tr.verdict == "refuted":
            print(f"refuted: {tr.refutation}", file=sys.stderr)

    if mr is not None:
        report["mixing"] = mr.as_dict()
        if not mr.all_covered:
            bad = next(s for s, n in zip(mr.seeds, mr.first_cover) if n is None)
            print(
                f"refuted: seed [{scalar_to_str(bad.lo)}, {scalar_to_str(bad.hi)}] "
                f"did not cover the domain within {mr.cap} iterations",
                file=sys.stderr,
            )

    if args.graph is not None:
        # verify_type built the same graph for its census
        graph = tr.graph if tr else build_covering_graph(doc.map, doc.markers.partition())
        write_text_atomic(args.graph, graph.to_dot())
        report["graph"] = {
            "dot_path": args.graph,
            "vertices": len(graph.vertices),
            "full_edges": sum(1 for e in graph.edges if e[2] == EDGE_FULL),
            "partial_edges": sum(1 for e in graph.edges if e[2] == EDGE_PARTIAL),
        }

    sys.stdout.write(json.dumps(report, sort_keys=True, indent=2) + "\n")
    return code


# ---------------------------------------------------------------- sweep

_Cell = Tuple[int, int, str, Union[Scalar, str]]  # str: the text's parse error


def _sweep_cells(args) -> List[_Cell]:
    """(p, d, slope text, slope) cells in deterministic order, each map once:
    a cell whose p, d and parsed slope repeat an earlier cell's is dropped,
    and the first text kept. The slope's type is part of it, since an exact
    and a floating slope build different maps. Each text is parsed here
    only; a text that does not parse stays, with its error message in place
    of the slope, so its row records the error."""
    grid = []
    if args.target_entropy is not None:
        min3 = math.log(minimal_slope(3))
        for text, h in args.target_entropy:
            d = 0
            while math.ldexp(h, d) < min3:
                d += 1
            try:
                slope = math.exp(math.ldexp(h, d))
            except OverflowError:
                raise _UsageError(
                    f"target entropy {text} is too large: "
                    f"exp(2^{d} * h) overflows"
                ) from None
            grid.append((3, d, repr(slope)))
    else:
        slopes = [x.strip() for x in args.slope_list.split(",") if x.strip()]
        for p in sorted(set(args.p)):
            for d in sorted(set(args.d)):
                for slope in slopes:
                    grid.append((p, d, slope))
    if not grid:
        raise _UsageError("empty sweep grid")
    seen = set()
    cells = []
    for p, d, text in grid:
        try:
            slope = parse_slope_text(text, p)
        except ValueError as exc:
            cells.append((p, d, text, str(exc)))
            continue
        key = (p, d, type(slope), slope)
        if key not in seen:
            seen.add(key)
            cells.append((p, d, text, slope))
    return cells


def _run_cell(cell: _Cell, args) -> Tuple[int, int, str, int, Tuple[str, ...]]:
    """(p, d, slope text, exit code, row fields from h_target on) of one
    cell, built, saved and certified as analyze would; a cell that raises,
    or whose text did not parse, gives an error row, which counts 2."""
    p, d, slope_text, slope = cell
    try:
        if isinstance(slope, str):
            raise ValueError(slope)
        params = ConstructionParams(p, d, slope)
        doc = document_for(params)
        slug = scalar_to_str(params.slope).replace("/", "_")
        save_document(doc, os.path.join(args.out_dir, f"map_p{p}_d{d}_lam{slug}.json"))
        mixing = None
        if d == 0:
            mixing = (parse_slope_text(args.mixing_width, p), args.mixing_grid, args.mixing_cap)
        est, tr, mr, code = _certify(doc, args.entropy_n, args.type_q, mixing, args.branch_cap)
    except Exception as exc:  # recorded, never aborts the sweep
        return (p, d, slope_text, EXIT_REFUTED, ("", "", f"error: {exc}", ""))
    verdict, max_n = tr.verdict, ""
    if mr is not None:
        max_n = "" if mr.max_n is None else str(mr.max_n)
        verdict += "" if mr.all_covered else ";mixing-failed"
    row = (f"{params.target_entropy:.6f}", f"{est.h:.6f}", verdict, max_n)
    return (p, d, slope_text, code, row)


def cmd_sweep(args) -> int:
    cells = _sweep_cells(args)
    os.makedirs(args.out_dir, exist_ok=True)
    run_cell = functools.partial(_run_cell, args=args)
    workers = min(args.workers, len(cells))  # a fork pool starts all at the first submit
    if workers > 1:
        # imported here: concurrent.futures.process is about a quarter of
        # this module's import time, and most commands start no pool
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run_cell, cells))
    else:
        results = [run_cell(cell) for cell in cells]
    results.sort(key=lambda r: r[:3])

    summary_path = os.path.join(args.out_dir, "summary.csv")
    lines = ["p,d,lambda,h_target,h_estimate,type_verdict,mixing_max_n"]
    for p, d, slope, _code, row in results:
        lines.append(",".join(_csv_quote(f) for f in (str(p), str(d), slope, *row)))
        h_target, h_estimate, verdict, _max_n = row
        print(
            f"p={p} d={d} lambda={slope}: {verdict}, "
            f"h={h_estimate or 'n/a'} (target {h_target or 'n/a'})"
        )
    write_text_atomic(summary_path, "\n".join(lines) + "\n")
    print(f"summary written to {summary_path}")
    return max(code for _p, _d, _slope, code, _row in results)


# ---------------------------------------------------------------- plot


def cmd_plot(args) -> int:
    doc = load_document(args.path)
    params = doc.params
    title = (
        f"type {params.type_value}, lambda = {scalar_to_str(params.slope)}, "
        f"d = {params.doublings}"
    )
    svg = render_map_svg(doc.map, markers=doc.markers, title=title)
    write_text_atomic(args.out, svg)
    print(f"wrote {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------- entry


_HANDLERS = {
    "construct": cmd_construct,
    "analyze": cmd_analyze,
    "sweep": cmd_sweep,
    "plot": cmd_plot,
}


def main(argv: Optional[List[str]] = None) -> int:
    """Run one command and give its exit code. The cyclic garbage collector
    is paused while the command runs and left as it was found, however the
    command ends (see the module docstring for why)."""
    parser = _build_parser()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        args = parser.parse_args(argv)
        return _HANDLERS[args.command](args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BranchBudgetError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, OSError, FixedPointContinuumError, OrbitNotClosedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    finally:
        if was_enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
