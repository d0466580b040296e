"""Certification benchmark for intervalmaps.

    python3 perfbench/run.py --workload type-exact --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --selfcheck       # every workload at tiny depths
    python3 perfbench/run.py --record-golden   # rewrite golden.json from the library

Run from the repository root; the library is imported from ``src/`` of the
same checkout and driven through ``intervalmaps.cli.main(argv)`` with stdout
and stderr captured. A run sets up its documents several times in-process
(fresh import, ``construct``, write), then repeats passes of its jobs, in an
order drawn from the seed, while one more pass would end nearer to
``--seconds`` than stopping does. Every certificate is checked (golden values plus independent checks) and
the last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``. Metric names and units are read from
``BENCHMARK.json``. End-to-end times are in reference seconds: each set-up
and invocation is scaled by a calibration kernel timed around it
(``calibration.py``), so the host's slow and fast phases cancel.

A traced run alternates untraced passes with traced rounds (set-up plus pass
with spans around the public functions of each module), at least two, and also
reports the tracing overhead. Spans are written to ``perfbench/.work/spans-<workload>.jsonl``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / ".work"
GOLDEN = BENCH_DIR / "golden.json"
SPEC = ROOT / "BENCHMARK.json"
PACKAGE = "intervalmaps"
SETUP_REPEATS = 21

from calibration import REFERENCE_S, Clock  # noqa: E402
from layers import INSTALL_TARGETS, REPEAT_COUNTS, round_metrics  # noqa: E402
from tracing import Tracer, install, uninstall  # noqa: E402
from workloads import WORKLOADS, Invocation, Workload, check_pass, reset_dir  # noqa: E402


def metric_units(kind: str) -> Dict[str, str]:
    """{name: unit} of the ``end_to_end`` or ``per_layer`` metrics of BENCHMARK.json."""
    return {m["name"]: m["unit"] for m in json.loads(SPEC.read_text())[kind]}


class SetupError(RuntimeError):
    pass


def import_cli(fresh: bool):
    if fresh:
        for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
            del sys.modules[name]
    return importlib.import_module(PACKAGE + ".cli")


def invoke(cli, argv: List[str]) -> Invocation:
    out, err = io.StringIO(), io.StringIO()
    rc, error = None, None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except Exception as exc:  # a crashing certificate is counted as failed
        error = f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    return Invocation(rc, out.getvalue(), err.getvalue(), seconds, error)


def set_up(wl: Workload, size: str, work: Path, fresh: bool):
    """Import (fresh or not), construct and write the workload's documents."""
    start = time.perf_counter()
    cli = import_cli(fresh)
    (work / "docs").mkdir(exist_ok=True)
    for argv in wl.setup_commands(size, work):
        inv = invoke(cli, argv)
        if inv.rc != 0 or inv.error is not None:
            raise SetupError(f"{' '.join(argv)}: exit {inv.rc} {inv.error or inv.stderr.strip()}")
    return time.perf_counter() - start, cli


@dataclass
class PassResult:
    wall: float
    times: List[Tuple[str, float, float]]  # (job key, seconds, scale) per invocation
    problems: Dict[str, List[str]]
    observed: Dict[str, dict]
    gaps: List[float]
    pool_cpu: float
    workers: int


def children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def run_pass(cli, wl, size, rng, work, refs, golden, workers, clock: Clock) -> PassResult:
    jobs = wl.jobs(size, work, rng, workers)
    wl.clear_outputs(work)
    gc.collect()  # the set-ups' garbage (old module copies) goes before timing
    clock.restart()
    results, scales = [], []
    for job in jobs:
        before = children_cpu()
        inv = invoke(cli, job.argv)
        inv.pool_cpu = children_cpu() - before
        scales.append(clock.scale())
        results.append((job, inv))
    problems, observed, gaps = check_pass(wl, results, work, refs, golden)
    times = [(job.key, inv.seconds, scale) for (job, inv), scale in zip(results, scales)]
    pool_cpu = sum(inv.pool_cpu for _, inv in results)
    wall = sum(seconds for _, seconds, _ in times)
    return PassResult(wall, times, problems, observed, gaps, pool_cpu, workers or 1)


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    # per pass, passed certificates per reference second; raw_* are uncalibrated
    rates: List[float] = field(default_factory=list)
    raw_rates: List[float] = field(default_factory=list)
    times: Dict[str, List[float]] = field(default_factory=dict)  # job key -> reference seconds
    raw_times: Dict[str, List[float]] = field(default_factory=dict)
    pass_walls: List[float] = field(default_factory=list)
    gaps: List[float] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def add(self, res: PassResult) -> None:
        self.attempted += len(res.problems)
        passed = 0
        for cert, found in sorted(res.problems.items()):
            if found:
                self.failed += 1
                self.notes.append(f"{cert}: {'; '.join(found)}")
            else:
                passed += 1
        self.rates.append(passed / sum(seconds * scale for _, seconds, scale in res.times))
        self.raw_rates.append(passed / res.wall)
        self.pass_walls.append(res.wall)
        for key, seconds, scale in res.times:
            self.times.setdefault(key, []).append(seconds * scale)
            self.raw_times.setdefault(key, []).append(seconds)
        self.gaps.extend(res.gaps)

    def check(self, ok: bool, message: str) -> None:
        """A run-level check (span coverage, count repeat); it counts in
        ``attempted`` like a certificate, and in ``failed`` when it fails."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(message)


@dataclass
class TracedRound:
    metrics: Dict[str, float]
    traced_wall: float
    serial_wall: float
    main: PassResult


def traced_round(cli, wl, size, rng, work, refs, golden, tally, spans_out, clock) -> TracedRound:
    main = run_pass(cli, wl, size, rng, work, refs, golden, wl.workers, clock)
    tally.add(main)
    serial = main
    if wl.workers is not None:  # spans from pool workers would be lost
        serial = run_pass(cli, wl, size, rng, work, refs, golden, 1, clock)
        tally.add(serial)
    tracer = Tracer()
    undo = install(tracer, PACKAGE, INSTALL_TARGETS)
    try:
        tracer.pass_id = "setup"
        set_up(wl, size, work, fresh=False)
        tracer.pass_id = "pass"
        traced = run_pass(cli, wl, size, rng, work, refs, golden, 1 if wl.workers else None, clock)
    finally:
        uninstall(undo)
    tally.add(traced)
    fired = {span[0] for span in tracer.spans}
    for span in sorted(wl.spans_fired):
        tally.check(span in fired, f"span {span} never fired")
    for span in sorted(wl.spans_absent):
        tally.check(span not in fired, f"span {span} fired but the workload must not reach it")
    cap = sys.modules[PACKAGE + ".plmap"].DEFAULT_BRANCH_CAP
    spans_out.append(tracer.spans)
    return TracedRound(round_metrics(tracer, cap), traced.wall, serial.wall, main)


def source_digest() -> str:
    """Identifies the code measured, so stored counts are compared only with
    runs of the same library and benchmark."""
    digest = hashlib.sha256()
    for path in sorted(list((SRC / PACKAGE).rglob("*.py")) + list(BENCH_DIR.glob("*.py"))):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def check_counts_across_runs(key: str, counts: Dict[str, float], tally: Tally) -> None:
    store_path = WORK / "counts.json"
    store = json.loads(store_path.read_text()) if store_path.is_file() else {}
    previous = store.get(key)
    if previous is None:
        store[key] = counts
        tmp = store_path.with_suffix(".tmp")
        tmp.write_text(json.dumps(store, indent=1, sort_keys=True))
        os.replace(tmp, store_path)
        return
    for name, value in counts.items():
        tally.check(previous.get(name) == value,
                    f"{name} drifted across runs: {previous.get(name)} -> {value}")


def peak_rss_mb() -> float:
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kb, children_kb) / 1024


def tail_note(times: List[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(times)
    if n < 11:
        return f"cert tail: n/a ({n} samples; a percentile with ten beyond it needs 11)"
    ordered = sorted(times)
    pct = 100 * (n - 10) / n
    return f"cert tail: p{pct:.1f} = {ordered[n - 11]:.6f} s over {n} samples"


def run_workload(wl: Workload, size: str, seed: int, seconds: float, trace: bool) -> dict:
    golden = json.loads(GOLDEN.read_text())[size][wl.name]
    work = WORK / f"run-{os.getpid()}"
    reset_dir(work)
    tally = Tally()
    rounds: List[TracedRound] = []
    spans: List[List[list]] = []  # one list per traced round
    clock = Clock()
    try:
        setup_times, raw_setup_times = [], []
        for _ in range(SETUP_REPEATS):
            elapsed, cli = set_up(wl, size, work, fresh=True)
            setup_times.append(elapsed * clock.scale())
            raw_setup_times.append(elapsed)
        refs = wl.load_refs(size, work)
        rng = random.Random(seed)
        start = time.perf_counter()
        while True:
            began = time.perf_counter()
            if trace:
                rounds.append(traced_round(cli, wl, size, rng, work, refs, golden, tally, spans, clock))
            else:
                tally.add(run_pass(cli, wl, size, rng, work, refs, golden, None, clock))
            now = time.perf_counter()
            if trace and len(rounds) < 2:
                continue  # the work counts are compared across traced rounds
            # one more pass of the same length ends nearer to ``seconds``
            # than stopping now only if half of it still fits
            if (now - start) + (now - began) / 2 >= seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    h_gap_max = max(tally.gaps, default=0.0)
    lines = []
    if trace:
        metrics = _layer_metrics(wl, size, rounds, tally, h_gap_max)
        units = metric_units("per_layer")
        _write_spans(wl.name, spans)
    else:
        # times in reference seconds (calibration.py); medians over the
        # run's set-ups, passes and each job's invocations
        metrics = _end_to_end(setup_times, tally.rates, tally.times)
        raw = _end_to_end(raw_setup_times, tally.raw_rates, tally.raw_times)
        units = metric_units("end_to_end")
        lines.append(tail_note([t for times in tally.times.values() for t in times]))
        lines.append("calibration (s): median " + f"{statistics.median(clock.calibrations):.4f} over "
                     f"{len(clock.calibrations)}, reference {REFERENCE_S}")
        lines.append("uncalibrated: " + ", ".join(f"{name} = {raw[name]:.6g}" for name in raw))
        lines.append("pass walls (s): " + " ".join(f"{w:.3f}" for w in tally.pass_walls))
        for key, times in sorted(tally.times.items()):
            lines.append(f"{key} times (reference s): " + " ".join(f"{t:.3f}" for t in times))
    lines[:0] = [
        f"workload {wl.name} ({size}), seed {seed}: {tally.attempted} checked "
        f"(certificates and run-level checks), {tally.failed} failed "
        f"(fail_ratio {tally.failed / max(tally.attempted, 1):.4f})",
        f"h_gap_max = {h_gap_max:.6g} nat (0 when the workload has no entropy estimate)",
    ]
    lines.extend(tally.notes[:20])
    return {
        "lines": lines,
        "result": {
            "correct": tally.failed == 0,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
        },
    }


def _end_to_end(setup_times, rates, times: Dict[str, List[float]]) -> Dict[str, float]:
    return {
        "setup_s": statistics.median(setup_times),
        "certs_per_s": statistics.median(rates),
        # a typical certificate: the mean of each job's median time
        "cert_p50_s": statistics.fmean(statistics.median(t) for t in times.values()),
        "peak_rss_mb": peak_rss_mb(),
    }


def _layer_metrics(wl, size, rounds: List[TracedRound], tally: Tally, h_gap_max: float):
    first = rounds[0].metrics
    for later in rounds[1:]:
        for name in REPEAT_COUNTS:
            tally.check(later.metrics[name] == first[name],
                        f"{name} drifted across passes: {first[name]} -> {later.metrics[name]}")
    check_counts_across_runs(
        f"{wl.name}/{size}/{source_digest()}", {name: first[name] for name in REPEAT_COUNTS}, tally
    )
    metrics = {
        name: statistics.median(r.metrics[name] for r in rounds) if name.endswith(".self_s") else value
        for name, value in first.items()
    }
    child_cpu = statistics.median(r.main.pool_cpu for r in rounds)
    metrics["cli.sweep.child_cpu_s"] = child_cpu if wl.workers else 0.0
    metrics["cli.sweep.parallel_efficiency"] = (
        statistics.median(r.main.pool_cpu / (r.main.wall * r.main.workers) for r in rounds)
        if wl.workers else 0.0
    )
    metrics["analysis.h_gap_max"] = h_gap_max
    metrics["trace.overhead_ratio"] = statistics.median(r.traced_wall for r in rounds) / statistics.median(
        r.serial_wall for r in rounds
    )
    return metrics


def _write_spans(workload: str, rounds: List[List[list]]) -> None:
    """One JSON line per span; ``parent`` indexes the spans of the same round."""
    with open(WORK / f"spans-{workload}.jsonl", "w") as handle:
        for number, spans in enumerate(rounds):
            for name, start, end, parent, pass_id in spans:
                handle.write(json.dumps({"round": number, "name": name, "start": start,
                                         "end": end, "parent": parent, "pass": pass_id}) + "\n")


def record_golden() -> int:
    """Record every certificate's observation at both sizes from the library."""
    golden: Dict[str, Dict[str, dict]] = {}
    work = WORK / f"record-{os.getpid()}"
    try:
        for size in ("full", "quick"):
            golden[size] = {}
            for wl in WORKLOADS.values():
                reset_dir(work)
                _elapsed, cli = set_up(wl, size, work, fresh=True)
                res = run_pass(cli, wl, size, random.Random(0), work,
                               wl.load_refs(size, work), None, None, Clock())
                bad = {cert: found for cert, found in res.problems.items() if found}
                if bad:
                    print(f"refusing to record {wl.name} ({size}): {bad}", file=sys.stderr)
                    return 1
                golden[size][wl.name] = res.observed
                print(f"recorded {wl.name} ({size}): {len(res.observed)} certificates")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


def selfcheck() -> int:
    """Each workload at tiny depths, untraced and traced."""
    ok = True
    for wl in WORKLOADS.values():
        for trace in (False, True):
            out = run_workload(wl, "quick", seed=0, seconds=0, trace=trace)
            result = out["result"]
            ok = ok and result["correct"]
            print(f"{'ok  ' if result['correct'] else 'FAIL'} {wl.name} trace={int(trace)}: "
                  f"{result['attempted']} checked, {result['failed']} failed")
            if not result["correct"]:
                print("\n".join("    " + line for line in out["lines"]))
    return 0 if ok else 1


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=35)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selfcheck", action="store_true")
    ap.add_argument("--record-golden", action="store_true")
    args = ap.parse_args(argv)

    if not (SRC / PACKAGE / "__init__.py").is_file():
        print(f"error: {SRC / PACKAGE} not found; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # the inputs are fixed: no branch cap from the environment
    os.environ.pop("INTERVALMAPS_BRANCH_CAP", None)
    WORK.mkdir(exist_ok=True)

    try:
        if args.record_golden:
            return record_golden()
        if args.selfcheck:
            return selfcheck()
        if args.workload is None:
            ap.error("--workload is required")
        out = run_workload(WORKLOADS[args.workload], "full", args.seed, args.seconds, bool(args.trace))
    except SetupError as exc:
        print(f"error: set-up failed: {exc}", file=sys.stderr)
        return 1
    for line in out["lines"]:
        print(line)
    for name, metric in out["result"]["metrics"].items():
        print(f"{name} = {metric['value']!r} {metric['unit']}")
    print(json.dumps(out["result"], sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
