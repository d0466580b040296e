"""The benchmark's workloads: set-up commands, the jobs of a pass, and checks.

Every job is one ``intervalmaps`` CLI invocation. A certificate is one
``analyze`` invocation or one sweep cell. The inputs are fixed, so each
certificate's observation (verdicts, period sets, censuses, lap sequences,
summary rows, ...) is compared with the golden value recorded from the
library; the seed only orders the jobs of a pass.

Besides the golden comparison, some checks are independent of the library:
every reported periodic witness is re-iterated exactly from the document's
breakpoints, the CSV lap column must equal the JSON laps, and each document a
sweep cell writes must equal the one ``construct`` wrote for that cell.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

# Layers named in spans: "<module>.<function>".
SPAN_TARGETS = [
    # (span name, module, attribute path)
    ("kernel.minimal_slope", "kernel", "minimal_slope"),
    ("construct.odd_type_map", "construct", "odd_type_map"),
    ("construct.square_root", "construct", "square_root"),
    ("document.save_document", "document", "save_document"),
    ("document.load_document", "document", "load_document"),
    ("plmap.branches_of_iterate", "plmap", "PLMap.branches_of_iterate"),
    ("plmap.periodic_points", "plmap", "PLMap.periodic_points"),
    ("plmap.lap_growth", "plmap", "PLMap.lap_growth"),
    ("plmap.image", "plmap", "PLMap.image"),
    ("covering.build_covering_graph", "covering", "build_covering_graph"),
    ("covering.primitive_cycle_census", "covering", "primitive_cycle_census"),
    ("analysis.verify_type", "analysis", "verify_type"),
    ("analysis.estimate_entropy", "analysis", "estimate_entropy"),
    ("analysis.verify_mixing", "analysis", "verify_mixing"),
    ("cli.main", "cli", "main"),
]


@dataclass(frozen=True)
class Job:
    key: str
    argv: List[str]
    certs: Tuple[str, ...]


@dataclass
class Invocation:
    rc: Optional[int]
    stdout: str
    stderr: str
    seconds: float
    error: Optional[str]
    pool_cpu: float = 0.0   # CPU seconds of the invocation's own pool workers


def _sha256_file(path: Path) -> Optional[str]:
    if not path.is_file():
        return None
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _normalized(obj):
    """The JSON form, so observations compare equal to recorded golden values."""
    return json.loads(json.dumps(obj, sort_keys=True))


class _PLMapOracle:
    """Exact evaluation of a document's map, written independently of the
    library so witness re-verification does not trust the code under test."""

    def __init__(self, doc: dict):
        self.bps = [Fraction(b) for b in doc["breakpoints"]]
        self.vals = [Fraction(v) for v in doc["values"]]

    def eval(self, x: Fraction) -> Fraction:
        bps, vals = self.bps, self.vals
        j = bisect_right(bps, x) - 1
        if j >= len(bps) - 1:
            return vals[-1]
        return vals[j] + (x - bps[j]) * (vals[j + 1] - vals[j]) / (bps[j + 1] - bps[j])

    def least_period_problem(self, text: str, q: int) -> Optional[str]:
        x = y = Fraction(text)
        for j in range(1, q + 1):
            y = self.eval(y)
            if y == x:
                return None if j == q else f"witness {text} has period {j}, not {q}"
        return f"witness {text} does not return after {q} steps"


class Workload:
    name: str
    workers: Optional[int] = None      # --workers of a traced round's pool pass, if any
    spans_fired: frozenset = frozenset()
    spans_absent: frozenset = frozenset()

    def setup_commands(self, size: str, work: Path) -> List[List[str]]:
        raise NotImplementedError

    def load_refs(self, size: str, work: Path):
        return None

    def jobs(self, size: str, work: Path, rng, workers: Optional[int]) -> List[Job]:
        raise NotImplementedError

    def clear_outputs(self, work: Path) -> None:
        shutil.rmtree(work / "out", ignore_errors=True)
        (work / "out").mkdir(parents=True)

    def observe(self, job: Job, inv: Invocation, work: Path, refs):
        """({cert: observation}, {cert: [problems]}, [entropy gaps])."""
        raise NotImplementedError


# ---------------------------------------------------------------- type-exact


class TypeExact(Workload):
    name = "type-exact"
    spans_fired = frozenset({
        "cli.main", "construct.odd_type_map", "document.save_document",
        "document.load_document", "analysis.verify_type", "plmap.periodic_points",
        "plmap.branches_of_iterate", "covering.build_covering_graph",
        "covering.primitive_cycle_census", "analysis.verify_mixing", "plmap.image",
    })
    spans_absent = frozenset({"plmap.lap_growth"})
    DOCS = (("f52", 5), ("f72", 7))
    SIZES = {
        "full": {"q": 11, "mixing": ("1/1024", "64", "200")},
        "quick": {"q": 6, "mixing": ("1/64", "8", "100")},
    }

    def setup_commands(self, size, work):
        return [
            ["construct", "--p", str(p), "--lambda", "2", "--out", str(work / "docs" / f"{label}.json")]
            for label, p in self.DOCS
        ]

    def load_refs(self, size, work):
        return {
            label: _PLMapOracle(json.loads((work / "docs" / f"{label}.json").read_text()))
            for label, _ in self.DOCS
        }

    def jobs(self, size, work, rng, workers):
        cfg = self.SIZES[size]
        jobs = [
            Job(label, ["analyze", str(work / "docs" / f"{label}.json"), "--type", str(cfg["q"]),
                        "--mixing", *cfg["mixing"],
                        "--graph", str(work / "out" / f"{label}.dot")], (label,))
            for label, _ in self.DOCS
        ]
        rng.shuffle(jobs)
        return jobs

    def observe(self, job, inv, work, refs):
        report = json.loads(inv.stdout)
        ty, mix, graph = report["type"], report["mixing"], report["graph"]
        obs = {
            "exit": inv.rc,
            "verdict": ty["verdict"],
            "present": sorted(int(q) for q in ty["present"]),
            "absent": ty["absent"],
            "checked_up_to": ty["checked_up_to"],
            "census": ty["census"],
            "boundary_periods": ty["boundary_periods"],
            "excluded_odd_periods": ty["excluded_odd_periods"],
            "first_cover": mix["first_cover"],
            "all_covered": mix["all_covered"],
            "graph": {k: graph[k] for k in ("vertices", "full_edges", "partial_edges")},
            "dot_sha256": _sha256_file(work / "out" / f"{job.key}.dot"),
        }
        oracle = refs[job.key]
        problems = [
            msg
            for q, text in ty["present"].items()
            if (msg := oracle.least_period_problem(text, int(q))) is not None
        ]
        return {job.key: obs}, {job.key: problems}, []


# ---------------------------------------------------------------- entropy-deep


class EntropyDeep(Workload):
    name = "entropy-deep"
    spans_fired = frozenset({
        "cli.main", "construct.odd_type_map", "construct.square_root",
        "document.save_document", "document.load_document",
        "analysis.estimate_entropy", "plmap.lap_growth",
    })
    spans_absent = frozenset({
        "analysis.verify_type", "plmap.periodic_points",
        "covering.build_covering_graph", "covering.primitive_cycle_census",
        "analysis.verify_mixing",
    })
    # label, p, d, entropy depth N (full, quick)
    DOCS = (
        ("f52", 5, 0, {"full": 12, "quick": 6}),
        ("sqrt_f32", 3, 1, {"full": 18, "quick": 8}),
        ("sqrt2_f52", 5, 2, {"full": 20, "quick": 10}),
    )

    def setup_commands(self, size, work):
        return [
            ["construct", "--p", str(p), "--d", str(d), "--lambda", "2",
             "--out", str(work / "docs" / f"{label}.json")]
            for label, p, d, _ in self.DOCS
        ]

    def jobs(self, size, work, rng, workers):
        jobs = [
            Job(label, ["analyze", str(work / "docs" / f"{label}.json"), "--entropy", str(depth[size]),
                        "--csv", str(work / "out" / f"{label}.csv")], (label,))
            for label, _, _, depth in self.DOCS
        ]
        rng.shuffle(jobs)
        return jobs

    def observe(self, job, inv, work, refs):
        est = json.loads(inv.stdout)["entropy"]
        csv_path = work / "out" / f"{job.key}.csv"
        rows = csv_path.read_text().splitlines()[1:] if csv_path.is_file() else []
        csv_laps = [int(row.split(",")[1]) for row in rows]
        obs = {
            "exit": inv.rc,
            "laps": est["laps"],
            "h": est["h"],
            "fit_window": est["fit_window"],
            "csv_sha256": _sha256_file(csv_path),
        }
        problems = [] if csv_laps == est["laps"] else ["CSV lap column differs from JSON laps"]
        return {job.key: obs}, {job.key: problems}, [est["gap"]]


# ---------------------------------------------------------------- sweep-float


class SweepFloat(Workload):
    name = "sweep-float"
    workers = 2
    spans_fired = frozenset({
        "cli.main", "kernel.minimal_slope", "construct.odd_type_map",
        "construct.square_root", "document.save_document",
        "analysis.estimate_entropy", "plmap.lap_growth", "analysis.verify_type",
        "plmap.periodic_points", "plmap.branches_of_iterate",
        "covering.build_covering_graph", "covering.primitive_cycle_census",
        "analysis.verify_mixing", "plmap.image",
    })
    SIZES = {
        "full": {"p": ["3", "5", "7", "9", "11"], "d": ["0", "1", "2"],
                 "lambda": ["lambda_p", "1.7", "1.9"], "extra": []},
        "quick": {"p": ["3", "5"], "d": ["0", "1"], "lambda": ["lambda_p", "1.9"],
                  "extra": ["--entropy-n", "6", "--type-q", "6", "--mixing-grid", "4"]},
    }

    def _cells(self, size):
        cfg = self.SIZES[size]
        return [(p, d, lam) for p in cfg["p"] for d in cfg["d"] for lam in cfg["lambda"]]

    @staticmethod
    def _cert(p, d, lam):
        return f"p{p}_d{d}_{lam}"

    def setup_commands(self, size, work):
        return [
            ["construct", "--p", p, "--d", d, "--lambda", lam,
             "--out", str(work / "docs" / f"{self._cert(p, d, lam)}.json")]
            for p, d, lam in self._cells(size)
        ]

    def load_refs(self, size, work):
        return {
            self._cert(p, d, lam): json.loads(
                (work / "docs" / f"{self._cert(p, d, lam)}.json").read_text()
            )
            for p, d, lam in self._cells(size)
        }

    def jobs(self, size, work, rng, workers):
        """One sweep per ``p`` over every ``d`` and slope, so a pass times
        several invocations."""
        cfg = self.SIZES[size]
        ps, ds, lams = (list(cfg[k]) for k in ("p", "d", "lambda"))
        for values in (ps, ds, lams):
            rng.shuffle(values)
        jobs = []
        for p in ps:
            argv = ["sweep", "--p", p, "--d", ",".join(ds), "--lambda", ",".join(lams),
                    "--out-dir", str(work / "out" / f"p{p}"), *cfg["extra"]]
            if workers is not None:
                argv += ["--workers", str(workers)]
            certs = tuple(self._cert(p, d, lam) for d in cfg["d"] for lam in cfg["lambda"])
            jobs.append(Job(f"p{p}", argv, certs))
        return jobs

    def observe(self, job, inv, work, refs):
        out = work / "out" / job.key
        lines = (out / "summary.csv").read_text().splitlines()
        rows = {}
        for line in lines[1:]:
            p, d, lam = line.split(",")[:3]
            rows[self._cert(p, d, lam)] = line
        obs, problems, gaps = {}, {}, []
        for cert in job.certs:
            row = rows.get(cert)
            obs[cert] = {"exit": inv.rc, "row": row}
            problems[cert] = _same_map(refs[cert], out)
            if row is not None:
                _p, _d, _lam, h_target, h_est = row.split(",")[:5]
                if h_target and h_est:
                    gaps.append(abs(float(h_est) - float(h_target)))
        return obs, problems, gaps


def _same_map(ref: dict, out: Path) -> List[str]:
    """The document a sweep cell wrote must carry the reference map."""
    params = ref["params"]
    name = f"map_p{params['p']}_d{params['d']}_lam{params['lambda'].replace('/', '_')}.json"
    path = out / name
    if not path.is_file():
        return [f"sweep wrote no {name}"]
    doc = json.loads(path.read_text())
    if doc["breakpoints"] != ref["breakpoints"] or doc["values"] != ref["values"]:
        return [f"{name} differs from the constructed reference"]
    return []


WORKLOADS: Dict[str, Workload] = {
    wl.name: wl for wl in (TypeExact(), EntropyDeep(), SweepFloat())
}


def check_pass(wl: Workload, results: Sequence[Tuple[Job, Invocation]], work: Path,
               refs, golden: Optional[dict]):
    """Per-certificate problems, observations and entropy gaps of one pass.

    With ``golden`` None nothing is compared against recorded values (used
    when recording them)."""
    problems: Dict[str, List[str]] = {}
    observed: Dict[str, dict] = {}
    gaps: List[float] = []
    for job, inv in results:
        if inv.error is not None:
            for cert in job.certs:
                problems[cert] = [f"exception: {inv.error}"]
            continue
        try:
            obs, probs, job_gaps = wl.observe(job, inv, work, refs)
        except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            for cert in job.certs:
                problems[cert] = [f"unreadable output: {exc!r}"]
            continue
        gaps.extend(job_gaps)
        for cert in job.certs:
            found = list(probs.get(cert, []))
            value = _normalized(obs.get(cert))
            observed[cert] = value
            if inv.rc != 0:
                found.append(f"exit code {inv.rc}")
            if golden is not None and value != golden.get(cert):
                found.append("golden mismatch")
            problems[cert] = found
    return problems, observed, gaps


def reset_dir(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
