import json
import math
from fractions import Fraction

import pytest

from intervalmaps import verify_type
from intervalmaps.cli import main
from intervalmaps.document import MapDocument, load_document

F = Fraction


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
        assert doc.mode == "rational"

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
        assert doc.mode == "floating"
        assert len(doc.map.breakpoints) == 3  # degenerate middle block

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

    def test_budget_env_var(self, tmp_path, capsys, monkeypatch):
        path = construct(tmp_path, "--p", "5", "--lambda", "2")
        capsys.readouterr()
        monkeypatch.setenv("INTERVALMAPS_BRANCH_CAP", "50")
        assert main(["analyze", str(path), "--type", "13"]) == 3

    def test_missing_file_exits_one(self, capsys):
        assert main(["analyze", "/no/such/file.json"]) == 1

    def test_csv_requires_entropy(self, tmp_path, capsys):
        path = construct(tmp_path, "--p", "3", "--lambda", "2")
        capsys.readouterr()
        assert main(["analyze", str(path), "--csv", str(tmp_path / "x.csv")]) == 1

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
    ])
    def test_grid_wide_argument_usage_error(self, tmp_path, capsys, flag, value, message):
        """A bad argument shared by every cell is refused before the output
        directory is made, not written as an error row per cell."""
        out_dir = tmp_path / "cells"
        code = main(["sweep", "--p", "3", "--lambda", "2", flag, value, "--out-dir", str(out_dir)])
        assert code == 1
        assert capsys.readouterr().err == f"usage error: {message}\n"
        assert not out_dir.exists()

    def test_empty_grid_usage_error(self, tmp_path, capsys):
        code = main(["sweep", "--p", "", "--out-dir", str(tmp_path / "x")])
        assert code == 1

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

    @pytest.mark.parametrize("cap", ["0", "-5"])
    def test_env_var_rejected(self, tmp_path, capsys, monkeypatch, cap):
        path = construct(tmp_path, "--p", "3", "--lambda", "2")
        capsys.readouterr()
        monkeypatch.setenv("INTERVALMAPS_BRANCH_CAP", cap)
        assert main(["analyze", str(path), "--type", "3"]) == 1
        assert "INTERVALMAPS_BRANCH_CAP must be a positive integer" in capsys.readouterr().err
        assert main(["sweep", "--out-dir", str(tmp_path / "cells")]) == 1
        assert "INTERVALMAPS_BRANCH_CAP must be a positive integer" in capsys.readouterr().err

    def test_flag_overrides_env_var(self, tmp_path, capsys, monkeypatch):
        path = construct(tmp_path, "--p", "3", "--lambda", "2")
        capsys.readouterr()
        monkeypatch.setenv("INTERVALMAPS_BRANCH_CAP", "0")
        assert main(["analyze", str(path), "--type", "3", "--branch-cap", "1000"]) == 0


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
    """The public PLMap methods a type check and a floating sweep cell go
    through: periodic points and the float pass advance only by
    branches_of_iterate, mixing takes its images through PLMap.image, and an
    exact type check never counts laps."""

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

    def test_float_sweep_cell(self, tmp_path, capsys, calls):
        argv = ["sweep", "--p", "3", "--d", "0", "--lambda", "1.9", "--entropy-n", "6",
                "--type-q", "6", "--mixing-grid", "4", "--out-dir", str(tmp_path / "cells")]
        assert main(argv) == 0
        assert all(calls[name] > 0 for name in self.NAMES), calls
