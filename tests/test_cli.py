import concurrent.futures
import gc
import importlib
import inspect
import json
import math
import os
import re
import runpy
import stat
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from intervalmaps import cli, verify_type
from intervalmaps.cli import _build_parser, main
from intervalmaps.document import MapDocument, load_document

F = Fraction
DATA = Path(__file__).parent / "data"


def construct(tmp_path, *extra):
    path = tmp_path / "map.json"
    code = main(["construct", "--out", str(path), *extra])
    assert code == 0
    return path


class TestConstruct:
    def test_writes_document(self, tmp_path, capsys):
        path = construct(tmp_path, "--p", "5", "--d", "0", "--lambda", "2")
        out = capsys.readouterr().out
        assert "type 5" in out
        doc = load_document(str(path))
        assert len(doc.map.breakpoints) == 7
        assert doc.params.mode == "rational"

    def test_stdout_mode(self, capsys):
        code = main(["construct", "--p", "3", "--lambda", "2"])
        assert code == 0
        captured = capsys.readouterr()
        doc = MapDocument.from_json(captured.out)
        assert doc.params.p == 3
        assert "type 3" in captured.err

    def test_doubling_summary(self, tmp_path, capsys):
        construct(tmp_path, "--p", "3", "--d", "1", "--lambda", "2")
        out = capsys.readouterr().out
        assert "type 6" in out
        assert f"{math.log(2) / 2:.6f}" in out

    def test_below_minimum_exits_one(self, tmp_path, capsys):
        code = main(
            ["construct", "--p", "3", "--lambda", "1", "--out", str(tmp_path / "x.json")]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "1.618033988750" in err  # names the minimum to 12 digits

    @pytest.mark.parametrize("extra, message", [
        (["--d", "-1"], "doublings must be a nonnegative integer, got -1"),
        (["--lambda", "0"], "slope 0/1 is below the minimal admissible slope"),
        (["--lambda", "-2"], "slope -2/1 is below the minimal admissible slope"),
        (["--lambda", "-1"], "slope -1/1 is below the minimal admissible slope"),
        (["--lambda", "1/0"], "zero denominator"),
    ])
    def test_bad_params_exit_one(self, tmp_path, capsys, extra, message):
        out = tmp_path / "x.json"
        assert main(["construct", "--p", "3", *extra, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not out.exists()

    def test_tol_flag_removed(self, capsys):
        assert main(["construct", "--p", "5", "--lambda", "1.5", "--tol", "1"]) == 1
        assert "unrecognized arguments: --tol" in capsys.readouterr().err

    def test_lambda_p_keyword(self, tmp_path):
        path = construct(tmp_path, "--p", "3", "--lambda", "lambda_p")
        doc = load_document(str(path))
        assert doc.params.mode == "floating"
        assert len(doc.map.breakpoints) == 3  # degenerate middle block

    def test_lambda_p_at_p29(self, tmp_path):
        """Horner's test alone refuses minimal_slope(29); the bracket passes it."""
        path = construct(tmp_path, "--p", "29", "--lambda", "lambda_p")
        graph = tmp_path / "f29.dot"
        assert main(["analyze", str(path), "--type", "3", "--graph", str(graph)]) == 0

    @pytest.mark.parametrize("p, slope", [("21", "7.5"), ("5", "181.5"), ("3", "1e30")])
    def test_rounding_broken_float_build_exits_one(self, tmp_path, capsys, p, slope):
        out = tmp_path / "x.json"
        assert main(["construct", "--p", p, "--lambda", slope, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: binary64 rounding breaks the odd type ")
        assert err.count("\n") == 1 and len(err) < 300 and "Traceback" not in err
        assert err.endswith("; give the slope as a fraction a/b\n")
        assert not out.exists()

    @pytest.mark.parametrize("slope", ["99999999999999999999999/3", "3e7"])
    def test_huge_slope_exits_three(self, tmp_path, capsys, slope):
        """A slope whose f alone has more pieces than the branch cap is
        refused before the tent loop, as the cap refuses f^1."""
        out = tmp_path / "x.json"
        start = time.perf_counter()
        assert main(["construct", "--p", "3", "--lambda", slope, "--out", str(out)]) == 3
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert err == (
            "budget exceeded: branch budget 10000000 exceeded; largest completed iterate n=0\n"
        )
        assert not out.exists()

    def test_roundtrip_byte_identical(self, tmp_path):
        path = construct(tmp_path, "--p", "5", "--lambda", "2")
        text = path.read_text()
        assert MapDocument.from_json(text).to_json() == text

    def test_markers_dropped_for_doublings(self, tmp_path):
        path = construct(tmp_path, "--p", "3", "--d", "1", "--lambda", "2")
        doc = load_document(str(path))
        assert doc.markers is None
        assert doc.params.type_value == 6


class TestAnalyze:
    def test_type_and_graph_and_csv(self, tmp_path, capsys):
        path = construct(tmp_path, "--p", "5", "--lambda", "2")
        capsys.readouterr()
        dot = tmp_path / "g.dot"
        csv_path = tmp_path / "laps.csv"
        code = main(
            [
                "analyze", str(path),
                "--type", "9",
                "--entropy", "10",
                "--graph", str(dot),
                "--csv", str(csv_path),
            ]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["type"]["verdict"] == "consistent"
        assert report["type"]["absent"] == [3]
        assert report["graph"]["vertices"] == 6
        assert report["graph"]["full_edges"] == 9
        assert report["graph"]["partial_edges"] == 1
        dot_text = dot.read_text()
        assert dot_text.count("style=solid") == 9
        assert dot_text.count("style=dashed") == 1
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "n,lap_count,log_ratio"
        assert lines[1].startswith("1,6,")
        assert len(lines) == 11

    def test_excluded_periods_past_type_q(self, capsys):
        """--type 3 on the p = 7 fixture excludes 3 and 5, each checked by a
        census and a boundary walk to 5, and reports both only up to 3."""
        assert main(["analyze", str(DATA / "map_p7_d0_lam2.json"), "--type", "3"]) == 0
        report = json.loads(capsys.readouterr().out)["type"]
        assert report["excluded_odd_periods"] == [3, 5]
        assert report["census"] == {"1": 1, "2": 3, "3": 0}
        assert list(report["boundary_periods"]) == [
            "0/1", "1/1", "1/2", "1/4", "11/32", "3/4", "3/8", "5/16", "53/64"]
        assert set(report["boundary_periods"].values()) == {None}
        assert (report["verdict"], report["absent"]) == ("consistent", [3])

    def test_graph_built_once(self, tmp_path, capsys, monkeypatch):
        """With --type, the DOT comes from the graph the type check built for
        its census; without it, analyze builds the graph itself. Both write
        the same bytes and counts."""
        from intervalmaps import analysis, cli
        from intervalmaps.covering import build_covering_graph

        path = construct(tmp_path, "--p", "5", "--lambda", "2")
        built = []

        def counted(*args):
            built.append(args)
            return build_covering_graph(*args)

        monkeypatch.setattr(analysis, "build_covering_graph", counted)
        monkeypatch.setattr(cli, "build_covering_graph", counted)
        doc = load_document(str(path))
        expected = build_covering_graph(doc.map, doc.markers.partition()).to_dot()
        graphs = []
        for extra in (["--type", "7"], []):
            capsys.readouterr()
            built.clear()
            dot = tmp_path / f"g{len(extra)}.dot"
            assert main(["analyze", str(path), *extra, "--graph", str(dot)]) == 0
            assert len(built) == 1
            assert dot.read_text() == expected
            report = json.loads(capsys.readouterr().out)["graph"]
            graphs.append({k: v for k, v in report.items() if k != "dot_path"})
        assert graphs[0] == graphs[1]

    @pytest.mark.parametrize("command", ["construct --out", "analyze --csv", "analyze --graph"])
    def test_failed_write_names_path(self, tmp_path, capsys, command):
        """A write into a missing directory reports the requested path, not
        the temp file of the atomic write, and leaves nothing behind."""
        path = construct(tmp_path, "--p", "3", "--lambda", "2")
        target = tmp_path / "missing" / "out.txt"
        argv = {
            "construct --out": ["construct", "--p", "3", "--out", str(target)],
            "analyze --csv": ["analyze", str(path), "--entropy", "5", "--csv", str(target)],
            "analyze --graph": ["analyze", str(path), "--graph", str(target)],
        }[command]
        capsys.readouterr()
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: [Errno 2] No such file or directory: '{target}'\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["map.json"]

    def test_results_match_in_memory(self, tmp_path, capsys):
        path = construct(tmp_path, "--p", "5", "--lambda", "2")
        capsys.readouterr()
        code = main(["analyze", str(path), "--type", "7"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        doc = load_document(str(path))
        direct = verify_type(doc.map, 5, 7, partition=doc.markers.partition())
        assert report["type"]["verdict"] == direct.verdict
        assert report["type"]["absent"] == list(direct.absent)
        assert set(report["type"]["present"]) == {str(q) for q in direct.present}

    def test_mixing_flag(self, tmp_path, capsys):
        path = construct(tmp_path, "--p", "3", "--lambda", "2")
        capsys.readouterr()
        code = main(["analyze", str(path), "--mixing", "1/1024", "8", "200"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["mixing"]["all_covered"] is True

    @pytest.mark.parametrize("width, first_cover", [
        ("0.001", [12, 13, 13, 13]),
        ("lambda_p", [1, 0, 0, 2]),
    ])
    def test_decimal_width_traced_exactly(self, tmp_path, capsys, width, first_cover):
        """On a rational document a decimal or lambda_p width is taken at its
        binary64 value: every seed end is a/b."""
        path = construct(tmp_path, "--p", "5", "--lambda", "2")
        capsys.readouterr()
        assert main(["analyze", str(path), "--mixing", width, "4", "100"]) == 0
        mixing = json.loads(capsys.readouterr().out)["mixing"]
        assert all("/" in end for seed in mixing["seeds"] for end in seed)
        assert mixing["first_cover"] == first_cover

    @pytest.mark.parametrize("mixing, message", [
        (["abc", "64", "200"], "--mixing WIDTH must be a positive number, got abc"),
        (["1/1024", "x", "200"], "--mixing GRID must be an integer >= 1, got x"),
        (["1/1024", "64", "0"], "--mixing CAP must be an integer >= 1, got 0"),
    ])
    def test_bad_mixing_is_refused_first(self, tmp_path, capsys, monkeypatch, mixing, message):
        """A bad --mixing value is a usage error before any certificate runs."""
        path = construct(tmp_path, "--p", "3", "--lambda", "2")
        capsys.readouterr()

        def never(*args, **kwargs):
            raise AssertionError("verify_type ran before --mixing was checked")

        monkeypatch.setattr("intervalmaps.cli.verify_type", never)
        code = main(["analyze", str(path), "--type", "13", "--mixing", *mixing])
        assert code == 1
        assert capsys.readouterr().err == f"usage error: {message}\n"

    @pytest.mark.parametrize("flag, message", [
        (["--entropy", "2"], "usage error: --entropy must be >= 3, got 2\n"),
        (["--type", "0"], "usage error: --type must be >= 1, got 0\n"),
        (["--branch-cap", "0"], "usage error: --branch-cap must be a positive integer, got 0\n"),
        (["--type", "x"], "usage error: argument --type: invalid int value: 'x'\n"),
    ])
    def test_bad_depth_is_refused_first(self, tmp_path, capsys, monkeypatch, flag, message):
        """--entropy, --type and --branch-cap are checked as the command line
        is parsed, before the document loads; a non-integer keeps argparse's
        message."""
        path = construct(tmp_path, "--p", "5", "--lambda", "2")
        capsys.readouterr()

        def never(*args, **kwargs):
            raise AssertionError("ran before the flags were checked")

        for name in ("load_document", "estimate_entropy", "verify_type"):
            monkeypatch.setattr(f"intervalmaps.cli.{name}", never)
        code = main(["analyze", str(path), "--entropy", "12", "--type", "13", *flag])
        assert code == 1
        assert capsys.readouterr().err == message

    def test_refuted_claim_exits_two(self, tmp_path, capsys):
        path = construct(tmp_path, "--p", "5", "--lambda", "2")
        capsys.readouterr()
        # tamper with the claimed type: pretend the document is a doubled map
        # (which carries no markers)
        obj = json.loads(path.read_text())
        obj["params"]["d"] = 1
        obj["markers"] = None
        path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n")
        code = main(["analyze", str(path), "--type", "6"])
        assert code == 2
        captured = capsys.readouterr()
        assert "refuted" in captured.err

    def test_budget_exits_three(self, tmp_path, capsys):
        path = construct(tmp_path, "--p", "5", "--lambda", "2")
        capsys.readouterr()
        code = main(["analyze", str(path), "--type", "13", "--branch-cap", "50"])
        assert code == 3

    def test_entropy_budget_exits_three(self, capsys):
        code = main(["analyze", str(DATA / "map_p5_d0_lam2.json"),
                     "--entropy", "12", "--branch-cap", "10"])
        assert code == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "budget exceeded: branch budget 10 exceeded; largest completed iterate n=1\n"

    def test_mixing_refuted_exits_two(self, tmp_path, capsys):
        """The square root of f32 is not mixing: a seed in the left third
        never covers the domain."""
        path = construct(tmp_path, "--p", "3", "--d", "1", "--lambda", "2")
        capsys.readouterr()
        assert main(["analyze", str(path), "--mixing", "1/64", "8", "100"]) == 2
        out, err = capsys.readouterr()
        assert json.loads(out)["mixing"]["all_covered"] is False
        assert err == ("refuted: seed [7/128, 9/128] did not cover the domain "
                       "within 100 iterations\n")

    def test_missing_period_exits_two(self, tmp_path, capsys):
        """f52 claimed as type 3 lacks period 3."""
        obj = json.loads((DATA / "map_p5_d0_lam2.json").read_text())
        obj["params"]["p"] = 3
        obj["markers"] = None
        path = tmp_path / "claims3.json"
        path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n")
        assert main(["analyze", str(path), "--type", "6"]) == 2
        out, err = capsys.readouterr()
        assert json.loads(out)["type"]["verdict"] == "refuted"
        assert err == "refuted: period 3 is prescribed by type 3 but missing\n"

    def test_missing_file_exits_one(self, capsys):
        assert main(["analyze", "/no/such/file.json"]) == 1

    def test_csv_requires_entropy(self, tmp_path, capsys):
        path = construct(tmp_path, "--p", "3", "--lambda", "2")
        capsys.readouterr()
        assert main(["analyze", str(path), "--csv", str(tmp_path / "x.csv")]) == 1

    def test_csv_without_entropy_is_refused_first(self, tmp_path, capsys):
        """The usage error comes before the document loads, so a missing
        document does not hide it."""
        missing = tmp_path / "missing.json"
        assert main(["analyze", str(missing), "--csv", str(tmp_path / "x.csv")]) == 1
        assert capsys.readouterr().err == "usage error: --csv requires --entropy\n"

    def test_graph_requires_markers(self, tmp_path, capsys):
        path = construct(tmp_path, "--p", "3", "--d", "1", "--lambda", "2")
        capsys.readouterr()
        assert main(["analyze", str(path), "--graph", str(tmp_path / "g.dot")]) == 1


class TestSweep:
    def test_grid(self, tmp_path, capsys):
        out_dir = tmp_path / "cells"
        code = main(
            [
                "sweep", "--p", "3,5", "--d", "0", "--lambda", "2",
                "--out-dir", str(out_dir),
                "--entropy-n", "10", "--type-q", "9",
                "--mixing-grid", "8",
            ]
        )
        assert code == 0
        lines = (out_dir / "summary.csv").read_text().splitlines()
        assert lines[0] == "p,d,lambda,h_target,h_estimate,type_verdict,mixing_max_n"
        assert len(lines) == 3
        assert lines[1].startswith("3,0,2,") and lines[2].startswith("5,0,2,")
        assert all("consistent" in line for line in lines[1:])
        assert (out_dir / "map_p3_d0_lam2_1.json").exists()

    def test_deterministic_row_order(self, tmp_path):
        out_dir = tmp_path / "cells"
        main(
            [
                "sweep", "--p", "5,3", "--d", "0", "--lambda", "2",
                "--out-dir", str(out_dir),
                "--entropy-n", "8", "--type-q", "5", "--mixing-grid", "4",
            ]
        )
        rows = (out_dir / "summary.csv").read_text().splitlines()[1:]
        assert [r.split(",")[0] for r in rows] == ["3", "5"]

    def test_target_entropy(self, tmp_path, capsys):
        out_dir = tmp_path / "target"
        code = main(
            [
                "sweep", "--target-entropy", "0.3",
                "--out-dir", str(out_dir),
                "--entropy-n", "14", "--type-q", "6",
            ]
        )
        assert code == 0
        row = (out_dir / "summary.csv").read_text().splitlines()[1].split(",")
        p, d, lam, h_target, h_estimate = row[:5]
        assert (p, d) == ("3", "1")
        assert math.exp(2 * 0.3) == pytest.approx(float(lam))
        assert abs(float(h_estimate) - 0.3) < 0.05

    def test_target_entropy_overflow_usage_error(self, tmp_path, capsys):
        out_dir = tmp_path / "big"
        code = main(["sweep", "--target-entropy", "1000", "--out-dir", str(out_dir)])
        assert code == 1
        assert "usage error: target entropy 1000 is too large" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_target_entropy_past_float_doublings(self, tmp_path, capsys):
        """h = 1e-310 needs d = 1029, where 2^d no longer converts to a float:
        the search doubles h instead, and the map it asks for is refused in
        its row, as for other tiny targets."""
        out_dir = tmp_path / "tiny"
        code = main(["sweep", "--target-entropy", "1e-310", "--out-dir", str(out_dir)])
        assert code == 2
        row = (out_dir / "summary.csv").read_text().splitlines()[1].split(",")
        assert row[:2] == ["3", "1029"]
        assert row[5].startswith("error: ")

    def test_rounding_broken_cell_row(self, tmp_path, capsys):
        """The cell's row carries construct's one-line refusal."""
        assert main(["construct", "--p", "21", "--lambda", "7.5"]) == 1
        err = capsys.readouterr().err
        out_dir = tmp_path / "cells"
        assert main(["sweep", "--p", "21", "--lambda", "7.5", "--out-dir", str(out_dir)]) == 2
        rows = (out_dir / "summary.csv").read_text().splitlines()[1:]
        assert rows == [f"21,0,7.5,,,{err.rstrip()},"]

    def test_huge_slope_cell_row(self, tmp_path, capsys):
        out_dir = tmp_path / "cells"
        slope = "99999999999999999999999/3"
        assert main(["sweep", "--p", "3", "--lambda", slope, "--out-dir", str(out_dir)]) == 2
        rows = (out_dir / "summary.csv").read_text().splitlines()[1:]
        assert rows == [
            f"3,0,{slope},,,error: branch budget 10000000 exceeded; "
            "largest completed iterate n=0,"
        ]

    def test_tiny_target_names_failing_root(self, tmp_path, capsys):
        """h = 1e-200 needs d = 664, and the floating roots stop being maps at
        the 33rd: the row names that root and d. The row of h = 0.5 in the
        same sweep is the one it always was."""
        out_dir = tmp_path / "tiny"
        code = main(["sweep", "--target-entropy", "1e-200,0.5", "--out-dir", str(out_dir)])
        assert code == 2
        rows = (out_dir / "summary.csv").read_text().splitlines()[1:]
        assert rows == [
            "3,0,1.6487212707001282,0.500000,0.498911,consistent,17",
            "3,664,2.149962751896532,,,error: square root 33 of d = 664 is not a valid "
            "map: constant piece at index 1 is not supported,",
        ]

    def test_target_entropy_inf_usage_error(self, tmp_path, capsys):
        out_dir = tmp_path / "inf"
        code = main(["sweep", "--target-entropy", "inf", "--out-dir", str(out_dir)])
        assert code == 1
        assert "usage error: target entropy inf is not finite" in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("flag, value, message", [
        ("--entropy-n", "2", "--entropy-n must be >= 3, got 2"),
        ("--type-q", "0", "--type-q must be >= 1, got 0"),
        ("--mixing-grid", "0", "--mixing-grid must be >= 1, got 0"),
        ("--mixing-cap", "0", "--mixing-cap must be >= 1, got 0"),
        ("--workers", "0", "--workers must be >= 1, got 0"),
        ("--workers", "-3", "--workers must be >= 1, got -3"),
        ("--mixing-width", "0", "--mixing-width must be a positive number, got 0"),
        ("--mixing-width", "-1/2", "--mixing-width must be a positive number, got -1/2"),
        ("--mixing-width", "abc", "--mixing-width must be a positive number, got abc"),
        ("--p", "3,x", "--p must be a comma list of integers, got 3,x"),
        ("--d", "0,1.5", "--d must be a comma list of integers, got 0,1.5"),
        ("--target-entropy", "0.5,abc",
         "--target-entropy must be a comma list of positive numbers, got 0.5,abc"),
        ("--target-entropy", "0.5,-1", "target entropies must be positive"),
    ])
    def test_grid_wide_argument_usage_error(self, tmp_path, capsys, flag, value, message):
        """A bad grid or grid-wide argument is refused, naming its flag,
        before the output directory is made, not written as an error row per
        cell."""
        out_dir = tmp_path / "cells"
        code = main(["sweep", "--p", "3", "--lambda", "2", f"{flag}={value}",
                     "--out-dir", str(out_dir)])
        assert code == 1
        assert capsys.readouterr().err == f"usage error: {message}\n"
        assert not out_dir.exists()

    def test_lambda_p_mixing_width(self, tmp_path, capsys):
        """lambda_p is a valid width for each cell's own p."""
        out_dir = tmp_path / "cells"
        code = main(["sweep", "--p", "3,5", "--entropy-n", "6", "--type-q", "5",
                     "--mixing-grid", "4", "--mixing-width", "lambda_p",
                     "--out-dir", str(out_dir)])
        assert code == 0
        rows = (out_dir / "summary.csv").read_text().splitlines()[1:]
        assert [row.split(",")[5] for row in rows] == ["consistent", "consistent"]

    def test_empty_grid_usage_error(self, tmp_path, capsys):
        code = main(["sweep", "--p", "", "--out-dir", str(tmp_path / "x")])
        assert code == 1

    def test_empty_target_entropy_list_usage_error(self, tmp_path, capsys):
        """An empty --target-entropy list is an empty grid, not the default one."""
        out_dir = tmp_path / "empty"
        code = main(["sweep", "--target-entropy", ",", "--out-dir", str(out_dir)])
        assert code == 1
        assert capsys.readouterr().err == "usage error: empty sweep grid\n"
        assert not out_dir.exists()

    def test_parallel_matches_sequential(self, tmp_path, capsys):
        kwargs = [
            "--p", "3,5", "--d", "0", "--lambda", "2",
            "--entropy-n", "8", "--type-q", "5", "--mixing-grid", "4",
        ]
        seq_dir, par_dir = tmp_path / "seq", tmp_path / "par"
        assert main(["sweep", *kwargs, "--out-dir", str(seq_dir)]) == 0
        assert main(["sweep", *kwargs, "--out-dir", str(par_dir), "--workers", "2"]) == 0
        assert (
            (seq_dir / "summary.csv").read_text()
            == (par_dir / "summary.csv").read_text()
        )

    @pytest.mark.parametrize("grid, row_start, document", [
        (["--p", "3", "--lambda", "2,2/1"], "3,0,2,", "map_p3_d0_lam2_1.json"),
        (["--target-entropy", "0.5,0.50"], "3,0,1.6487212707001282,",
         "map_p3_d0_lam1.6487212707001282.json"),
    ], ids=["lambda", "target-entropy"])
    def test_equal_slopes_run_once(self, tmp_path, capsys, grid, row_start, document):
        """Two texts of one slope are one cell: the first text's row, and one
        document."""
        out_dir = tmp_path / "cells"
        code = main(["sweep", *grid, "--entropy-n", "4", "--type-q", "3",
                     "--mixing-grid", "2", "--out-dir", str(out_dir)])
        assert code == 0
        rows = (out_dir / "summary.csv").read_text().splitlines()[1:]
        assert len(rows) == 1 and rows[0].startswith(row_start)
        assert sorted(p.name for p in out_dir.iterdir()) == [document, "summary.csv"]
        assert capsys.readouterr().out.count("consistent") == 1

    def test_exact_and_float_slope_both_run(self, tmp_path, capsys):
        """2 and 2.0 build different maps (exact and floating), and a text
        that does not parse keeps its error row."""
        out_dir = tmp_path / "cells"
        main(["sweep", "--p", "3", "--lambda", "2,2.0,x,x", "--entropy-n", "4",
              "--type-q", "3", "--mixing-grid", "2", "--out-dir", str(out_dir)])
        rows = (out_dir / "summary.csv").read_text().splitlines()[1:]
        assert [row.split(",")[2] for row in rows] == ["2", "2.0", "x", "x"]

    def test_failed_cell_recorded(self, tmp_path, capsys):
        out_dir = tmp_path / "cells"
        code = main(
            [
                "sweep", "--p", "3", "--d", "0", "--lambda", "1,2",
                "--out-dir", str(out_dir),
                "--entropy-n", "8", "--type-q", "5", "--mixing-grid", "4",
            ]
        )
        assert code == 2  # one refused cell
        rows = (out_dir / "summary.csv").read_text().splitlines()[1:]
        assert len(rows) == 2
        assert any("error:" in r for r in rows)
        assert any("consistent" in r for r in rows)

    def test_mixing_failure_marks_row(self, tmp_path, capsys):
        out_dir = tmp_path / "cells"
        code = main(["sweep", "--p", "3", "--lambda", "2", "--mixing-cap", "1",
                     "--out-dir", str(out_dir)])
        assert code == 2
        rows = (out_dir / "summary.csv").read_text().splitlines()[1:]
        assert rows == ["3,0,2,0.693147,0.690436,consistent;mixing-failed,"]

    @pytest.mark.parametrize("sweep_flags, analyze_flags, row, code", [
        (["--p", "3", "--entropy-n", "4", "--type-q", "5", "--mixing-grid", "4"],
         ["--entropy", "4", "--type", "5", "--mixing", "1/1024", "4", "200"],
         "3,0,2,0.693147,0.693201,consistent,12", 0),
        (["--p", "5", "--entropy-n", "3", "--type-q", "11", "--branch-cap", "80"],
         ["--entropy", "3", "--type", "11", "--branch-cap", "80",
          "--mixing", "1/1024", "16", "200"],
         "5,0,2,0.693147,0.787768,inconclusive,14", 3),
        (["--p", "3", "--entropy-n", "4", "--type-q", "5", "--mixing-cap", "1"],
         ["--entropy", "4", "--type", "5", "--mixing", "1/1024", "16", "1"],
         "3,0,2,0.693147,0.693201,consistent;mixing-failed,", 2),
    ], ids=["consistent", "inconclusive", "mixing-failed"])
    def test_cell_exits_as_analyze(self, tmp_path, capsys, sweep_flags, analyze_flags,
                                   row, code):
        """A one-cell sweep exits with the code analyze gives on the document
        the cell wrote, run with the same certificates: an inconclusive type
        check is a budget verdict (3) in a sweep too."""
        out_dir = tmp_path / "cells"
        assert main(["sweep", *sweep_flags, "--lambda", "2", "--out-dir", str(out_dir)]) == code
        assert (out_dir / "summary.csv").read_text().splitlines()[1:] == [row]
        doc = out_dir / f"map_p{sweep_flags[1]}_d0_lam2_1.json"
        assert main(["analyze", str(doc), *analyze_flags]) == code

    @pytest.mark.parametrize("ps, workers, pools", [
        ("3,5,7", "64", [3]),
        ("3,5,7", "2", [2]),
        ("3", "8", []),
    ])
    def test_workers_capped_by_cells(self, tmp_path, capsys, monkeypatch, ps, workers, pools):
        """A pool gets at most one worker per cell, since a fork pool starts
        every worker at its first submit, and a single cell gets no pool. The
        stand-in pool records its size and runs the cells in this process;
        sweep imports the pool class from concurrent.futures when it starts
        one, so the stand-in replaces it there."""
        made = []

        class Pool:
            def __init__(self, max_workers):
                made.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
        code = main(["sweep", "--p", ps, "--lambda", "2", "--entropy-n", "4", "--type-q", "3",
                     "--mixing-grid", "2", "--workers", workers,
                     "--out-dir", str(tmp_path / "cells")])
        assert code == 0
        assert made == pools
        assert capsys.readouterr().out.count("consistent") == len(ps.split(","))

    def test_quoted_fields(self, tmp_path, capsys):
        """A slope text with a quote is quoted in its own field and in the
        error field that repeats it."""
        out_dir = tmp_path / "cells"
        assert main(["sweep", "--lambda", 'a"b', "--out-dir", str(out_dir)]) == 2
        rows = (out_dir / "summary.csv").read_text().splitlines()[1:]
        assert rows == ['3,0,"a""b",,,"error: could not convert string to float: \'a""b\'",']

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_each_grid_text_parsed_once(self, tmp_path, capsys, monkeypatch, workers):
        """Each cell's slope text is parsed once, where the cells are made,
        and the cell carries its slope (or its parse error) into the fork
        pool: lambda_p, an exact slope, a text that does not parse and one
        below the minimum give their usual rows and exit 2. Each parse is
        logged to a file, so that a worker's parses count too."""
        log = tmp_path / "parses.log"
        parse = cli.parse_slope_text

        def logged(text, p):
            with open(log, "a") as handle:
                handle.write(f"{text} {p}\n")
            return parse(text, p)

        monkeypatch.setattr(cli, "parse_slope_text", logged)
        texts = ["lambda_p", "17/10", "abc", "1"]
        out_dir = tmp_path / "cells"
        code = main(["sweep", "--p", "3", "--d", "0,1", "--lambda", ",".join(texts),
                     "--entropy-n", "4", "--type-q", "5", "--mixing-grid", "2",
                     "--workers", workers, "--out-dir", str(out_dir)])
        assert code == 2
        parsed = [line for line in log.read_text().splitlines() if line.split()[0] in texts]
        assert sorted(parsed) == sorted(f"{text} 3" for text in texts for _d in (0, 1))
        below = "error: slope 1/1 is below the minimal admissible slope for odd type 3: "
        unparsable = "error: could not convert string to float: 'abc'"
        assert (out_dir / "summary.csv").read_text().splitlines()[1:] == [
            f"3,0,1,,,{below}1.618033988750,",
            "3,0,17/10,0.530628,0.573328,consistent,15",
            f"3,0,abc,,,{unparsable},",
            "3,0,lambda_p,0.481212,0.593489,consistent,17",
            f"3,1,1,,,{below}1.618033988750,",
            "3,1,17/10,0.265314,0.556623,consistent,",
            f"3,1,abc,,,{unparsable},",
            "3,1,lambda_p,0.240606,0.595064,consistent,",
        ]


def test_cli_import_loads_no_pool():
    """A fresh import of the CLI leaves concurrent.futures.process and
    multiprocessing unloaded: sweep imports the pool only when it starts one,
    so no other command pays for them in start-up time or memory. It runs in
    a new interpreter, since this one may have loaded them already."""
    import intervalmaps

    code = (
        "import sys, intervalmaps.cli; "
        "print([m for m in ('concurrent.futures.process', 'multiprocessing') "
        "if m in sys.modules])"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(intervalmaps.__file__).parent.parent)}
    run = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert run.stdout == "[]\n"


class TestPlot:
    def test_deterministic_svg(self, tmp_path, capsys):
        path = construct(tmp_path, "--p", "5", "--lambda", "2")
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        assert main(["plot", str(path), "--out", str(a)]) == 0
        assert main(["plot", str(path), "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_svg_contents(self, tmp_path, capsys):
        path = construct(tmp_path, "--p", "5", "--lambda", "2")
        out = tmp_path / "m.svg"
        main(["plot", str(path), "--out", str(out)])
        svg = out.read_text()
        assert "<polyline" in svg
        assert svg.count("<circle") == 5  # the period-5 orbit markers

    def test_two_point_map(self, tmp_path, capsys):
        # a single-piece map still renders as a two-point polyline
        from intervalmaps import PLMap
        from intervalmaps.plotsvg import render_map_svg

        svg = render_map_svg(PLMap((F(0), F(1)), (F(1), F(0))))
        assert "<polyline" in svg


class TestFileModes:
    """Every file the CLI writes gets 0o666 less the umask, as a plain write
    would, though it is written to a temp file first."""

    @pytest.fixture(params=[(0o022, 0o644), (0o077, 0o600)], ids=["022", "077"])
    def mode(self, request):
        umask, mode = request.param
        old = os.umask(umask)
        yield mode
        os.umask(old)

    def test_outputs(self, tmp_path, capsys, mode):
        doc, dot, csv, svg, cells = (
            str(tmp_path / name) for name in ("m.json", "g.dot", "l.csv", "m.svg", "cells")
        )
        for argv in (
            ["construct", "--p", "3", "--lambda", "2", "--out", doc],
            ["analyze", doc, "--entropy", "4", "--csv", csv, "--graph", dot],
            ["sweep", "--p", "3", "--lambda", "2", "--entropy-n", "4", "--type-q", "3",
             "--mixing-grid", "2", "--out-dir", cells],
            ["plot", doc, "--out", svg],
        ):
            assert main(argv) == 0
        written = [doc, dot, csv, svg, *(str(p) for p in Path(cells).iterdir())]
        assert len(written) == 6  # sweep wrote summary.csv and one document
        assert {p: stat.S_IMODE(os.stat(p).st_mode) for p in written} == dict.fromkeys(written, mode)


class TestUmaskUntouched:
    def test_writers_never_call_umask(self, tmp_path, capsys, monkeypatch):
        """The atomic writer lets the kernel apply the umask when it creates
        its temp file, so no writer reads or sets the process umask: with
        os.umask raising, every command still writes 0o666 less the umask."""
        old = os.umask(0o077)

        def umask(mask):
            raise AssertionError("os.umask called")

        monkeypatch.setattr(os, "umask", umask)
        try:
            TestFileModes().test_outputs(tmp_path, capsys, 0o600)
        finally:
            monkeypatch.undo()
            os.umask(old)


class TestCollectorPause:
    """main pauses the cyclic garbage collector while a command runs and
    leaves it as it found it, however the command ends."""

    @pytest.fixture(params=[True, False], ids=["enabled", "disabled"])
    def state(self, request):
        was = gc.isenabled()
        (gc.enable if request.param else gc.disable)()
        yield request.param
        (gc.enable if was else gc.disable)()

    def test_restored_after_exit_codes(self, tmp_path, capsys, state):
        path = str(construct(tmp_path, "--p", "5", "--lambda", "2"))
        assert gc.isenabled() is state
        assert main(["analyze", path, "--type", "5"]) == 0
        assert gc.isenabled() is state
        assert main(["construct", "--p", "3", "--frobnicate"]) == 1
        assert gc.isenabled() is state
        assert main(["analyze", path, "--type", "13", "--branch-cap", "50"]) == 3
        assert gc.isenabled() is state

    def test_restored_after_escaping_exception(self, tmp_path, capsys, monkeypatch, state):
        from intervalmaps import cli

        seen = []

        def handler(args):
            seen.append(gc.isenabled())
            raise RuntimeError("escaped")

        monkeypatch.setitem(cli._HANDLERS, "plot", handler)
        with pytest.raises(RuntimeError, match="escaped"):
            main(["plot", "m.json", "--out", str(tmp_path / "m.svg")])
        assert seen == [False]  # off while the handler ran
        assert gc.isenabled() is state


class TestCollectorMayStayOff:
    """What a command leaves for the cyclic collector: with it off, the
    objects gc.collect() finds unreachable afterwards. Deeper work must not
    leave more, so pausing the collector for a command costs no memory that
    grows with the work."""

    @staticmethod
    def unreachable_after(argv):
        gc.collect()
        was = gc.isenabled()
        gc.disable()
        try:
            assert main(argv) == 0
            return gc.collect()
        finally:
            if was:
                gc.enable()

    def test_deeper_type_leaves_no_more(self, tmp_path, capsys):
        path = str(construct(tmp_path, "--p", "5", "--lambda", "2"))
        counts = [
            self.unreachable_after(["analyze", path, "--type", str(q), "--mixing", "1/64", "8",
                                    "100", "--graph", str(tmp_path / "g.dot")])
            for q in (9, 13)
        ]
        assert counts[1] <= counts[0], counts

    def test_sweep_cells_leave_a_few_each(self, tmp_path, capsys):
        """Nine cells, each a constructed, saved and certified document."""
        found = self.unreachable_after(
            ["sweep", "--p", "3", "--d", "0,1,2", "--lambda", "2,1.9,17/10", "--entropy-n", "4",
             "--type-q", "5", "--mixing-grid", "2", "--out-dir", str(tmp_path / "cells")])
        assert found <= 9 * 40, found  # 33 per cell on CPython 3.11


class TestUsage:
    def test_unknown_flag(self, capsys):
        assert main(["construct", "--p", "3", "--frobnicate"]) == 1

    def test_missing_command_args(self, capsys):
        assert main(["construct"]) == 1


class TestBranchCapValidation:
    @pytest.mark.parametrize("cap", ["0", "-5"])
    def test_flag_rejected(self, tmp_path, capsys, cap):
        path = construct(tmp_path, "--p", "3", "--lambda", "2")
        capsys.readouterr()
        assert main(["analyze", str(path), "--type", "3", "--branch-cap", cap]) == 1
        assert "--branch-cap must be a positive integer" in capsys.readouterr().err
        out_dir = tmp_path / "cells"
        assert main(["sweep", "--out-dir", str(out_dir), "--branch-cap", cap]) == 1
        assert "--branch-cap must be a positive integer" in capsys.readouterr().err
        assert not out_dir.exists()


class TestMalformedDocument:
    def rewrite(self, tmp_path, edit, slope="2"):
        path = construct(tmp_path, "--p", "3", "--lambda", slope)
        obj = json.loads(path.read_text())
        edit(obj)
        path.write_text(json.dumps(obj))
        return path

    def test_missing_params(self, tmp_path, capsys):
        path = self.rewrite(tmp_path, lambda obj: obj.pop("params"))
        capsys.readouterr()
        assert main(["analyze", str(path), "--type", "3"]) == 1
        assert "error: document field 'params'" in capsys.readouterr().err
        with pytest.raises(ValueError, match="'params'"):
            load_document(str(path))

    def test_params_as_list(self, tmp_path, capsys):
        path = self.rewrite(tmp_path, lambda obj: obj.update(params=[3, 0, "2"]))
        capsys.readouterr()
        assert main(["analyze", str(path), "--type", "3"]) == 1
        assert "error: document field 'params'" in capsys.readouterr().err
        with pytest.raises(ValueError, match="'params'"):
            load_document(str(path))

    def test_missing_param_key(self, tmp_path, capsys):
        path = self.rewrite(tmp_path, lambda obj: obj["params"].pop("lambda"))
        with pytest.raises(ValueError, match="lacks field 'lambda'"):
            load_document(str(path))

    @pytest.mark.parametrize("field, value, message", [
        ("p", 4, "p must be an odd integer >= 3, got 4"),
        ("d", -1, "doublings must be a nonnegative integer, got -1"),
    ])
    def test_bad_params_exit_one(self, tmp_path, capsys, field, value, message):
        path = self.rewrite(tmp_path, lambda obj: obj["params"].update({field: value}))
        capsys.readouterr()
        assert main(["analyze", str(path), "--type", "5"]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("slope", ["2", "1.9"])
    def test_other_tol_exits_one(self, tmp_path, capsys, slope):
        path = self.rewrite(tmp_path, lambda obj: obj["params"].update(tol=1e-06), slope)
        capsys.readouterr()
        assert main(["analyze", str(path), "--type", "3"]) == 1
        message = "error: document field 'tol' must be 1e-09, got 1e-06\n"
        assert capsys.readouterr().err == message

    @pytest.mark.parametrize("field", [
        "lambda", "breakpoint", "value", "orbit point", "t", "interval end",
    ])
    def test_zero_denominator_exits_one(self, tmp_path, capsys, field):
        def edit(obj):
            markers = obj["markers"]
            holder, key = {
                "lambda": (obj["params"], "lambda"),
                "breakpoint": (obj["breakpoints"], 1),
                "value": (obj["values"], 1),
                "orbit point": (markers["orbit"], 0),
                "t": (markers, "t"),
                "interval end": (markers["intervals"]["I1"], 1),
            }[field]
            holder[key] = "3/0"

        path = self.rewrite(tmp_path, edit)
        capsys.readouterr()
        assert main(["analyze", str(path), "--type", "3"]) == 1
        assert capsys.readouterr().err == "error: scalar '3/0' has a zero denominator\n"

    def test_mistyped_field_exits_one(self, tmp_path, capsys):
        path = self.rewrite(tmp_path, lambda obj: obj["params"].update(p=None))
        capsys.readouterr()
        assert main(["analyze", str(path), "--type", "3"]) == 1
        assert capsys.readouterr().err.startswith("error: malformed document: ")

    def test_bad_orbit_exits_one(self, tmp_path, capsys):
        path = self.rewrite(tmp_path, lambda obj: obj["markers"].update(
            orbit=["1/7", "2/7", "3/7"]))
        capsys.readouterr()
        message = "error: marker orbit[0] = 1/7 does not map to orbit[1]\n"
        assert main(["analyze", str(path), "--type", "5"]) == 1
        assert capsys.readouterr().err == message
        svg = tmp_path / "m.svg"
        assert main(["plot", str(path), "--out", str(svg)]) == 1
        assert capsys.readouterr().err == message
        assert not svg.exists()

    def test_identity_iterate_exits_one(self, tmp_path, capsys):
        """x -> 1 - x: f^2 is the identity, so its fixed points are not isolated."""
        path = self.rewrite(tmp_path, lambda obj: obj.update(
            breakpoints=["0/1", "1/1"], values=["1/1", "0/1"], markers=None))
        capsys.readouterr()
        assert main(["analyze", str(path), "--type", "3"]) == 1
        assert capsys.readouterr().err.startswith("error: f^2 is the identity on [0, 1]")
        assert main(["analyze", str(path), "--entropy", "5"]) == 0
        assert json.loads(capsys.readouterr().out)["entropy"]["laps"] == [1] * 5

    def test_float_orbit_not_closing_exits_one(self, tmp_path, capsys):
        """A steep float map (one piece has slope -18): f^6 brings one of its
        fixed points back only to within 1.1e-9, past the fixed tolerance, so
        its least period cannot be read. That is an error, not a traceback."""
        path = self.rewrite(tmp_path, lambda obj: obj.update(
            breakpoints=["0.0", "0.27842106451389714", "0.5494399091440374",
                         "0.8192798378357413", "0.8639844696985152",
                         "0.8833838264415125", "1.0"],
            values=["0.0", "0.3587711653316248", "0.884192827198217",
                    "0.9577312039639913", "0.15092090579110895",
                    "0.17621772849037032", "0.0"],
            markers=None), "1.9")
        capsys.readouterr()
        assert main(["analyze", str(path), "--type", "6"]) == 1
        message = "error: point 0.8265487107558289 failed to close up after 6 steps\n"
        assert capsys.readouterr().err == message


class TestEngineEntryPoints:
    """The public PLMap methods a type check, an exact entropy estimate and a
    floating sweep cell go through: periodic points and the float pass advance
    only by branches_of_iterate, an exact type check never counts laps, and
    exact lap counts build no branch. Floating mixing takes its images through
    PLMap.image; exact mixing steps on the engine's int keys, so an exact type
    check reaches image through the covering graph of its census."""

    NAMES = ("branches_of_iterate", "periodic_points", "lap_growth", "image")

    @pytest.fixture
    def calls(self, monkeypatch):
        from intervalmaps.plmap import PLMap

        counts = dict.fromkeys(self.NAMES, 0)

        def counting(name):
            method = getattr(PLMap, name)

            def wrapper(self, *args, **kwargs):
                counts[name] += 1
                return method(self, *args, **kwargs)
            return wrapper

        for name in self.NAMES:
            monkeypatch.setattr(PLMap, name, counting(name))
        return counts

    def test_exact_type_check(self, tmp_path, capsys, calls):
        path = construct(tmp_path, "--p", "5", "--lambda", "2")
        argv = ["analyze", str(path), "--type", "6", "--mixing", "1/64", "8", "100",
                "--graph", str(tmp_path / "g.dot")]
        assert main(argv) == 0
        assert calls["branches_of_iterate"] > 0
        assert calls["periodic_points"] > 0
        assert calls["image"] > 0
        assert calls["lap_growth"] == 0

    def test_exact_entropy(self, tmp_path, capsys, calls):
        """Exact lap counts come from the interval graph alone."""
        path = construct(tmp_path, "--p", "5", "--lambda", "2")
        assert main(["analyze", str(path), "--entropy", "12"]) == 0
        assert calls["lap_growth"] > 0
        assert calls["branches_of_iterate"] == calls["periodic_points"] == calls["image"] == 0

    def test_float_sweep_cell(self, tmp_path, capsys, calls):
        argv = ["sweep", "--p", "3", "--d", "0", "--lambda", "1.9", "--entropy-n", "6",
                "--type-q", "6", "--mixing-grid", "4", "--out-dir", str(tmp_path / "cells")]
        assert main(argv) == 0
        assert all(calls[name] > 0 for name in self.NAMES), calls


class TestParserReuse:
    """main builds its parser once; consecutive in-process calls give the
    same output as each call made with a freshly built parser."""

    def run(self, capsys, argv, fresh):
        if fresh:
            _build_parser.cache_clear()
        code = main(argv)
        out, err = capsys.readouterr()
        return code, re.sub(r'"created": "[^"]*"', '"created": ""', out), err

    @pytest.mark.parametrize("first, second", [
        (["construct", "--p", "3", "--no-rescale", "--d", "1"], ["construct", "--p", "3", "--d", "1"]),
        (["analyze", "{path}", "--entropy", "8"], ["analyze", "{path}", "--type", "5"]),
    ], ids=["construct", "analyze"])
    def test_calls_share_no_state(self, tmp_path, capsys, first, second):
        path = str(construct(tmp_path, "--p", "3", "--lambda", "2"))
        capsys.readouterr()
        first, second = ([a.format(path=path) for a in argv] for argv in (first, second))
        alone = [self.run(capsys, argv, fresh=True) for argv in (first, second)]
        _build_parser.cache_clear()
        together = [self.run(capsys, argv, fresh=False) for argv in (first, second)]
        assert together == alone
        assert alone[0] != alone[1]


class TestBenchmarkTargets:
    def test_span_targets_resolve(self):
        """Every function the benchmark traces exists on the package, and
        branches_of_iterate keeps the parameter the trace counts steps from."""
        workloads = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
        targets = runpy.run_path(str(workloads), run_name="perfbench_workloads")["SPAN_TARGETS"]
        assert targets
        for _span, module, attr in targets:
            holder = importlib.import_module(f"intervalmaps.{module}")
            for name in attr.split("."):
                holder = getattr(holder, name)
            assert callable(holder), (module, attr)
        from intervalmaps.plmap import PLMap

        assert list(inspect.signature(PLMap.branches_of_iterate).parameters)[:2] == ["self", "q"]
