"""Command-line front end: construct maps, certify them, sweep grids, plot.

Exit codes: 0 success, 1 usage or I/O error, 2 certification refuted,
3 budget exceeded (inconclusive).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from typing import List, Optional, Tuple

from .analysis import (
    DEFAULT_Q_MAX,
    estimate_entropy,
    verify_mixing,
    verify_type,
)
from .construct import ConstructionParams, parse_slope_text
from .covering import build_covering_graph
from .document import document_for, load_document, save_document, write_text_atomic
from .kernel import minimal_slope, scalar_to_str
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

ENV_BRANCH_CAP = "INTERVALMAPS_BRANCH_CAP"


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


def _branch_cap(args) -> int:
    if args.branch_cap is not None:
        cap, source = args.branch_cap, "--branch-cap"
    elif os.environ.get(ENV_BRANCH_CAP):
        cap, source = int(os.environ[ENV_BRANCH_CAP]), ENV_BRANCH_CAP
    else:
        return DEFAULT_BRANCH_CAP
    if cap < 1:
        raise _UsageError(f"{source} must be a positive integer, got {cap}")
    return cap


def _build_parser() -> _Parser:
    ap = _Parser(
        prog="intervalmaps",
        description="Construct and certify piecewise-linear interval maps of "
        "prescribed type and entropy.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

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
    a.add_argument("--entropy", type=int, default=None, metavar="N_MAX")
    a.add_argument("--type", dest="type_q", type=int, default=None, metavar="Q_MAX")
    a.add_argument(
        "--mixing",
        nargs=3,
        default=None,
        metavar=("WIDTH", "GRID", "CAP"),
        help="seed width ('a/b' exact or decimal), grid size, iteration cap",
    )
    a.add_argument("--graph", default=None, metavar="DOT_PATH")
    a.add_argument("--csv", dest="csv_path", default=None, metavar="CSV_PATH")
    a.add_argument("--branch-cap", type=int, default=None)

    s = sub.add_parser("sweep", help="construct and certify a parameter grid")
    s.add_argument("--p", default="3", help="comma list of odd periods")
    s.add_argument("--d", default="0", help="comma list of doubling counts")
    s.add_argument(
        "--lambda",
        dest="slope_list",
        default="2",
        help="comma list of slopes (same forms as construct)",
    )
    s.add_argument(
        "--target-entropy",
        default=None,
        help="comma list of entropies; overrides the grid, solving p=3, "
        "d, lambda = exp(2^d h) per value",
    )
    s.add_argument("--out-dir", required=True)
    s.add_argument("--entropy-n", type=int, default=12)
    s.add_argument("--type-q", type=int, default=DEFAULT_Q_MAX)
    s.add_argument("--mixing-width", default="1/1024")
    s.add_argument("--mixing-grid", type=int, default=16)
    s.add_argument("--mixing-cap", type=int, default=200)
    s.add_argument("--workers", type=int, default=1)
    s.add_argument("--branch-cap", type=int, default=None)

    p = sub.add_parser("plot", help="render a document as SVG")
    p.add_argument("path", help="map document to plot")
    p.add_argument("--out", required=True, help="SVG path")

    return ap


# ---------------------------------------------------------------- construct


def cmd_construct(args) -> int:
    params = ConstructionParams(args.p, args.d, parse_slope_text(args.slope_text, args.p))
    doc = document_for(params, args.rescale)
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


def cmd_analyze(args) -> int:
    cap = _branch_cap(args)
    doc = load_document(args.path)
    params = doc.params
    m = doc.map
    partition = doc.markers.partition() if doc.markers else None
    report: dict = {"path": args.path, "type_claim": params.type_value}
    worst = EXIT_OK

    if args.csv_path is not None and args.entropy is None:
        raise _UsageError("--csv requires --entropy")
    if args.graph is not None and partition is None:
        raise _UsageError("--graph needs a document with interval markers (d = 0)")

    if args.entropy is not None:
        est = estimate_entropy(m, args.entropy, target=params.target_entropy, branch_cap=cap)
        report["entropy"] = est.as_dict()
        if args.csv_path is not None:
            lines = ["n,lap_count,log_ratio"]
            for n, lap in enumerate(est.laps, start=1):
                ratio = "" if n == 1 else f"{est.log_ratios[n - 2]:.12g}"
                lines.append(f"{n},{lap},{ratio}")
            write_text_atomic(args.csv_path, "\n".join(lines) + "\n")

    if args.type_q is not None:
        tr = verify_type(
            m, params.type_value, args.type_q, partition=partition, branch_cap=cap
        )
        report["type"] = tr.as_dict()
        if tr.verdict == "refuted":
            print(f"refuted: {tr.refutation}", file=sys.stderr)
            worst = max(worst, EXIT_REFUTED)
        elif tr.verdict == "inconclusive":
            worst = max(worst, EXIT_BUDGET)

    if args.mixing is not None:
        width_text, grid_text, cap_text = args.mixing
        width = parse_slope_text(width_text, params.p)
        mr = verify_mixing(m, width, int(grid_text), int(cap_text))
        report["mixing"] = mr.as_dict()
        if not mr.all_covered:
            bad = next(
                s for s, n in zip(mr.seeds, mr.first_cover) if n is None
            )
            print(
                f"refuted: seed [{scalar_to_str(bad.lo)}, {scalar_to_str(bad.hi)}] "
                f"did not cover the domain within {mr.cap} iterations",
                file=sys.stderr,
            )
            worst = max(worst, EXIT_REFUTED)

    if args.graph is not None:
        graph = build_covering_graph(m, partition)
        write_text_atomic(args.graph, graph.to_dot())
        report["graph"] = {
            "dot_path": args.graph,
            "vertices": len(graph.vertices),
            "full_edges": sum(1 for e in graph.edges if e[2] == "full"),
            "partial_edges": sum(1 for e in graph.edges if e[2] == "partial"),
        }

    json.dump(report, sys.stdout, sort_keys=True, indent=2)
    sys.stdout.write("\n")
    return worst


# ---------------------------------------------------------------- sweep


def _sweep_cells(args) -> List[Tuple[int, int, str]]:
    """(p, d, slope text) cells in deterministic order."""
    cells = []
    if args.target_entropy:
        min3 = math.log(minimal_slope(3))
        for part in args.target_entropy.split(","):
            h = float(part)
            if not h > 0:
                raise _UsageError("target entropies must be positive")
            if not math.isfinite(h):
                raise _UsageError(f"target entropy {part.strip()} is not finite")
            d = 0
            while min3 / (2 ** d) > h:
                d += 1
            try:
                slope = math.exp((2 ** d) * h)
            except OverflowError:
                raise _UsageError(
                    f"target entropy {part.strip()} is too large: "
                    f"exp(2^{d} * h) overflows"
                ) from None
            cells.append((3, d, repr(slope)))
        return cells
    ps = [int(x) for x in args.p.split(",") if x.strip()]
    ds = [int(x) for x in args.d.split(",") if x.strip()]
    slopes = [x.strip() for x in args.slope_list.split(",") if x.strip()]
    if not ps or not ds or not slopes:
        raise _UsageError("empty sweep grid")
    for p in sorted(set(ps)):
        for d in sorted(set(ds)):
            for slope in slopes:
                cells.append((p, d, slope))
    return cells


def _run_cell(job) -> Tuple[int, int, str, dict]:
    (p, d, slope_text, out_dir, entropy_n, type_q,
     mixing_width, mixing_grid, mixing_cap, cap) = job
    row: dict = {}
    try:
        params = ConstructionParams(p, d, parse_slope_text(slope_text, p))
        doc = document_for(params)
        slug = scalar_to_str(params.slope).replace("/", "_")
        path = os.path.join(out_dir, f"map_p{p}_d{d}_lam{slug}.json")
        save_document(doc, path)
        m = doc.map
        est = estimate_entropy(m, entropy_n, target=params.target_entropy, branch_cap=cap)
        partition = doc.markers.partition() if doc.markers else None
        tr = verify_type(m, params.type_value, type_q, partition=partition, branch_cap=cap)
        row["h_target"] = f"{params.target_entropy:.6f}"
        row["h_estimate"] = f"{est.h:.6f}"
        row["type_verdict"] = tr.verdict
        if d == 0:
            width = parse_slope_text(mixing_width, p)
            mr = verify_mixing(m, width, mixing_grid, mixing_cap)
            row["mixing_max_n"] = "" if mr.max_n is None else str(mr.max_n)
            if not mr.all_covered:
                row["type_verdict"] = tr.verdict + ";mixing-failed"
        else:
            row["mixing_max_n"] = ""
    except Exception as exc:  # recorded, never aborts the sweep
        row.setdefault("h_target", "")
        row["h_estimate"] = ""
        row["type_verdict"] = f"error: {exc}"
        row["mixing_max_n"] = ""
    return (p, d, slope_text, row)


def cmd_sweep(args) -> int:
    cap = _branch_cap(args)
    for flag, value, least in (
        ("--entropy-n", args.entropy_n, 3),
        ("--type-q", args.type_q, 1),
        ("--mixing-grid", args.mixing_grid, 1),
        ("--mixing-cap", args.mixing_cap, 1),
        ("--workers", args.workers, 1),
    ):
        if value < least:
            raise _UsageError(f"{flag} must be >= {least}, got {value}")
    cells = _sweep_cells(args)
    os.makedirs(args.out_dir, exist_ok=True)
    jobs = [
        (p, d, slope, args.out_dir, args.entropy_n, args.type_q,
         args.mixing_width, args.mixing_grid, args.mixing_cap, cap)
        for (p, d, slope) in cells
    ]
    if args.workers > 1:
        with ProcessPoolExecutor(max_workers=args.workers) as pool:
            results = list(pool.map(_run_cell, jobs))
    else:
        results = [_run_cell(job) for job in jobs]
    results.sort(key=lambda r: (r[0], r[1], r[2]))

    summary_path = os.path.join(args.out_dir, "summary.csv")
    ok = True
    lines = ["p,d,lambda,h_target,h_estimate,type_verdict,mixing_max_n"]
    for p, d, slope, row in results:
        fields = [str(p), str(d), slope, row["h_target"], row["h_estimate"],
                  row["type_verdict"], row["mixing_max_n"]]
        lines.append(",".join(_csv_quote(f) for f in fields))
        if row["type_verdict"] != "consistent":
            ok = False
        print(
            f"p={p} d={d} lambda={slope}: {row['type_verdict']}, "
            f"h={row['h_estimate'] or 'n/a'} (target {row['h_target'] or 'n/a'})"
        )
    write_text_atomic(summary_path, "\n".join(lines) + "\n")
    print(f"summary written to {summary_path}")
    return EXIT_OK if ok else EXIT_REFUTED


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
    parser = _build_parser()
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


if __name__ == "__main__":
    sys.exit(main())
