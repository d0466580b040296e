"""Byte pins of `analyze` on the committed fixtures.

tests/data/analyze_pins.json holds, per run and fixture, the exit code,
stdout and stderr of `analyze` and the DOT file of --graph, with the paths
written as file names. An engine change must leave every byte as it is. To
record the pins again (only when a report is meant to change):

    PYTHONPATH=src python tests/test_analyze_pins.py
"""

import json
import sys
import tempfile
from pathlib import Path

import pytest

from intervalmaps.cli import main

DATA = Path(__file__).parent / "data"
PINS = DATA / "analyze_pins.json"

# the d = 0 maps with a type, mixing and covering certificate, the d = 2 maps
# with a shallower type check and an entropy estimate, and every map with a
# branch cap that the type check runs into
RUNS = {
    "d0": (["--type", "11", "--mixing", "1/1024", "64", "200", "--graph"], "map_*_d0_*.json"),
    "d2": (["--type", "9", "--entropy", "12"], "map_*_d2_*.json"),
    "cap": (["--type", "11", "--branch-cap", "80"], "map_*.json"),
}


def cases():
    for run, (_flags, pattern) in RUNS.items():
        for path in sorted(DATA.glob(pattern)):
            yield run, path


def analyze(run, path, tmp, readouterr):
    """The pinned record of one run; --graph writes to tmp/g.dot."""
    argv = ["analyze", str(path), *RUNS[run][0]]
    dot = Path(tmp) / "g.dot"
    if argv[-1] == "--graph":
        argv.append(str(dot))
    code = main(argv)
    out, err = readouterr()
    for full in (path, dot):
        out = out.replace(json.dumps(str(full)), json.dumps(full.name))
    record = {"exit": code, "stdout": out, "stderr": err}
    if dot.exists():
        record["dot"] = dot.read_text()
        dot.unlink()
    return record


@pytest.mark.parametrize("run, path", list(cases()), ids=lambda v: getattr(v, "stem", v))
def test_analyze_matches_pin(run, path, tmp_path, capsys):
    pins = json.loads(PINS.read_text())
    assert analyze(run, path, tmp_path, capsys.readouterr) == pins[run][path.name]


def test_every_fixture_pinned():
    pins = json.loads(PINS.read_text())
    assert {run: sorted(p.name for r, p in cases() if r == run) for run in RUNS} == {
        run: sorted(pins[run]) for run in RUNS
    }
    assert [len(pins[run]) for run in RUNS] == [12, 13, 25]
    assert all("dot" in record for record in pins["d0"].values())


def _record() -> None:
    import io

    def readouterr():
        out, err = sys.stdout.getvalue(), sys.stderr.getvalue()
        for stream in (sys.stdout, sys.stderr):
            stream.seek(0)
            stream.truncate()
        return out, err

    real = sys.stdout, sys.stderr
    pins = {run: {} for run in RUNS}
    sys.stdout, sys.stderr = io.StringIO(), io.StringIO()
    try:
        with tempfile.TemporaryDirectory() as tmp:
            for run, path in cases():
                pins[run][path.name] = analyze(run, path, tmp, readouterr)
    finally:
        sys.stdout, sys.stderr = real
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(f"wrote {PINS}")


if __name__ == "__main__":
    _record()
