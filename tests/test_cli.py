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
        assert len(doc.breakpoints) == 7
        assert doc.mode == "rational"

    def test_stdout_mode(self, capsys):
        code = main(["construct", "--p", "3", "--lambda", "2"])
        assert code == 0
        captured = capsys.readouterr()
        doc = MapDocument.from_json(captured.out)
        assert doc.p == 3
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

    def test_lambda_p_keyword(self, tmp_path):
        path = construct(tmp_path, "--p", "3", "--lambda", "lambda_p")
        doc = load_document(str(path))
        assert doc.mode == "floating"
        assert len(doc.breakpoints) == 3  # degenerate middle block

    def test_roundtrip_byte_identical(self, tmp_path):
        path = construct(tmp_path, "--p", "5", "--lambda", "2")
        text = path.read_text()
        assert MapDocument.from_json(text).to_json() == text

    def test_markers_dropped_for_doublings(self, tmp_path):
        path = construct(tmp_path, "--p", "3", "--d", "1", "--lambda", "2")
        doc = load_document(str(path))
        assert doc.markers is None
        assert doc.claimed_type == 6


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
        direct = verify_type(doc.plmap(), 5, 7, partition=doc.partition())
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
        obj = json.loads(path.read_text())
        obj["params"]["d"] = 1
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
    def rewrite(self, tmp_path, edit):
        path = construct(tmp_path, "--p", "3", "--lambda", "2")
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
