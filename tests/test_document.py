"""Documents: the one builder, byte stability, and the checks made on load."""

import dataclasses
import json
import math
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from intervalmaps import ConstructionParams, eval_slope_poly, minimal_slope, verify_type
from intervalmaps.cli import main
from intervalmaps.document import MapDocument, document_for, load_document

F = Fraction

DATA = Path(__file__).parent / "data"
FIXTURES = sorted(DATA.glob("map_*.json"))
FIXTURE_NAME = re.compile(r"map_p(\d+)_d(\d+)_lam(.+?)(_norescale)?\.json")


def without_created(text):
    return re.sub(r'"created": "[^"]*"', '"created": ""', text)


def test_fixture_grid_is_complete():
    # p in {3, 5, 7}, d in {0, 2}, four slopes, plus one --no-rescale build
    assert len(FIXTURES) == 3 * 2 * 4 + 1


@pytest.mark.parametrize("path", FIXTURES, ids=lambda p: p.stem)
def test_construct_reproduces_fixture(tmp_path, capsys, path):
    p, d, slug, norescale = FIXTURE_NAME.fullmatch(path.name).groups()
    out = tmp_path / path.name
    slope = re.sub(r"(\d)_(\d)", r"\1/\2", slug)  # 17_10 -> 17/10
    argv = ["construct", "--p", p, "--d", d, "--lambda", slope, "--out", str(out)]
    if norescale:
        argv.append("--no-rescale")
    assert main(argv) == 0
    assert without_created(out.read_text()) == without_created(path.read_text())


@pytest.mark.parametrize("path", FIXTURES, ids=lambda p: p.stem)
def test_fixture_roundtrip_is_identity(path):
    text = path.read_text()
    assert load_document(str(path)).to_json() == text


class TestBuilder:
    def test_params_are_the_document_params(self):
        params = ConstructionParams(5, 2, F(17, 10))
        doc = document_for(params)
        assert doc.params is params
        assert doc.markers is None
        assert MapDocument.from_json(doc.to_json()).params == params

    def test_document_is_frozen_and_keeps_its_map(self):
        doc = load_document(str(FIXTURES[0]))
        assert doc.map is doc.map
        with pytest.raises(dataclasses.FrozenInstanceError):
            doc.map = document_for(ConstructionParams(3, 0, F(2))).map

    def test_loaded_params_are_validated(self):
        text = document_for(ConstructionParams(3, 0, F(2))).to_json()
        obj = json.loads(text)
        obj["params"]["lambda"] = "3/2"
        with pytest.raises(ValueError, match="below the minimal admissible slope"):
            MapDocument.from_dict(obj)


class TestStrictParams:
    """Each param has one JSON type and the mode names the map's exactness, so
    load -> to_json is the identity on every document that loads."""

    @pytest.mark.parametrize("name, field, value, message", [
        ("map_p3_d0_lam2", "mode", "floating",
         "document field 'mode' must be 'rational' for a rational map, got 'floating'"),
        ("map_p3_d0_lam1.9", "mode", "rational",
         "document field 'mode' must be 'floating' for a floating map, got 'rational'"),
        ("map_p3_d0_lam2", "rescale", "no",
         "malformed document: field 'rescale' must be true or false, got 'no'"),
        ("map_p3_d0_lam2", "p", 3.7, "malformed document: field 'p' must be an integer, got 3.7"),
        ("map_p3_d0_lam2", "p", True,
         "malformed document: field 'p' must be an integer, got True"),
        ("map_p3_d0_lam2", "d", "0",
         "malformed document: field 'd' must be an integer, got '0'"),
        ("map_p3_d0_lam2", "lambda", "2.0",
         "document field 'lambda' is floating but the map is rational"),
    ])
    def test_edited_param_exits_one(self, tmp_path, capsys, name, field, value, message):
        obj = json.loads((DATA / f"{name}.json").read_text())
        obj["params"][field] = value
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(obj))
        with pytest.raises(ValueError) as err:
            load_document(str(path))
        assert str(err.value) == message
        assert main(["analyze", str(path), "--type", "3"]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_missing_mode_is_named(self):
        obj = json.loads((DATA / "map_p3_d0_lam2.json").read_text())
        del obj["params"]["mode"]
        with pytest.raises(ValueError, match="lacks field 'mode'"):
            MapDocument.from_dict(obj)


class TestLoadRefusals:
    """A map or scalar that does not load is named with its exact message,
    and analyze exits 1 on it; a non-canonical rational loads reduced."""

    def written(self, tmp_path, name, edit):
        obj = json.loads((DATA / f"{name}.json").read_text())
        edit(obj)
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(obj))
        return path

    @pytest.mark.parametrize("edit, message", [
        (lambda o: o["breakpoints"].__setitem__(slice(1, 3), ["5/72", "1/18"]),
         "breakpoints not strictly increasing at 5/72, 1/18"),
        (lambda o: o["values"].__setitem__(1, "2/1"), "values leave the domain; not a self-map"),
        (lambda o: o["values"].__setitem__(1, "11/12"),
         "constant piece at index 1 is not supported"),
        (lambda o: o["breakpoints"].__setitem__(1, "1/0"), "scalar '1/0' has a zero denominator"),
    ])
    def test_refused_map_exits_one(self, tmp_path, capsys, edit, message):
        path = self.written(tmp_path, "map_p5_d2_lam2", edit)
        with pytest.raises(ValueError) as err:
            load_document(str(path))
        assert str(err.value) == message
        assert main(["analyze", str(path), "--entropy", "3"]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_negative_denominator_loads_negated(self, tmp_path, capsys):
        path = self.written(
            tmp_path, "map_p5_d2_lam2", lambda o: o["breakpoints"].__setitem__(0, "1/-2")
        )
        doc = load_document(str(path))
        assert doc.map.breakpoints[0] == F(-1, 2)
        assert doc.map.breakpoints[0].denominator == 2
        expected = json.loads((DATA / "map_p5_d2_lam2.json").read_text())
        expected["breakpoints"][0] = "-1/2"
        assert doc.to_json() == json.dumps(expected, sort_keys=True, indent=2) + "\n"
        assert main(["analyze", str(path), "--entropy", "3"]) == 0

    def test_unreduced_rational_resaves_canonically(self, tmp_path, capsys):
        text = (DATA / "map_p3_d0_lam2.json").read_text()
        assert '"1/2"' in text
        path = tmp_path / "unreduced.json"
        path.write_text(text.replace('"1/2"', '"2/4"'))
        doc = load_document(str(path))
        assert doc.markers.orbit[0] == F(1, 2) and doc.markers.orbit[0].numerator == 1
        assert doc.to_json() == text
        assert main(["analyze", str(path), "--entropy", "3"]) == 0


class TestMarkerCheck:
    def edited(self, edit):
        obj = document_for(ConstructionParams(5, 0, F(2))).to_dict()
        edit(obj["markers"])
        return obj

    @pytest.mark.parametrize("edit, message", [
        (lambda mk: mk.update(orbit=["1/7", "2/7", "3/7", "4/7", "5/7"]),
         r"marker orbit\[0\] = 1/7 does not map to orbit\[1\]"),
        (lambda mk: mk.update(orbit=mk["orbit"][:4]), "marker orbit has 4 points"),
        (lambda mk: mk.update(t="3/2"), "marker t = 3/2 lies outside the domain"),
        (lambda mk: mk["intervals"].update(K=["3/4", "4/5"]), "gap or overlap between K"),
        (lambda mk: mk["intervals"].update(K=["4/5", "3/4"]),
         r"marker interval K = \[4/5, 3/4\] has its ends out of order"),
        (lambda mk: mk["intervals"].pop("I1"), "partition"),
    ])
    def test_bad_marker_is_named(self, edit, message):
        with pytest.raises(ValueError, match=message):
            MapDocument.from_dict(self.edited(edit))

    def test_markers_need_d_zero(self):
        obj = self.edited(lambda mk: None)
        obj["params"]["d"] = 1
        with pytest.raises(ValueError, match="d = 0"):
            MapDocument.from_dict(obj)

    def test_floating_orbit_within_tolerance(self):
        doc = document_for(ConstructionParams(5, 0, 1.9))
        obj = doc.to_dict()
        x0 = float(obj["markers"]["orbit"][0])
        obj["markers"]["orbit"][0] = repr(x0 + 1e-12)
        MapDocument.from_dict(obj)
        obj["markers"]["orbit"][0] = repr(x0 + 1e-6)
        with pytest.raises(ValueError, match=r"marker orbit\[0\]"):
            MapDocument.from_dict(obj)


@st.composite
def slopes_at_or_above_minimum(draw):
    """ConstructionParams(p, 0, lambda) for odd p <= 11 and rational lambda
    in [lambda_p, 2] with denominator <= 50."""
    p = draw(st.sampled_from([3, 5, 7, 9, 11]))
    den = draw(st.integers(1, 50))
    num = draw(st.integers(math.ceil(minimal_slope(p) * den), 2 * den))
    slope = F(num, den)
    assume(eval_slope_poly(p, slope) >= 0)
    return ConstructionParams(p, 0, slope)


@settings(derandomize=True, max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(slopes_at_or_above_minimum())
def test_builder_property(params):
    """Constant slope, markers that pass the load check, byte round-trip and
    a consistent type up to q = 6, for every map the builder makes."""
    doc = document_for(params)
    m = doc.map
    assert all(abs(s) == params.slope for s in m.slopes)
    text = doc.to_json()
    loaded = MapDocument.from_json(text)  # re-verifies the markers
    assert loaded.to_json() == text
    report = verify_type(m, params.type_value, 6, partition=loaded.markers.partition())
    assert report.verdict == "consistent"
