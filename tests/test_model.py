"""Design-spec data model: JSON parsing, spec invariants and validation
messages."""

from __future__ import annotations

import json
import math
import sys

import pytest

from axdesign import (
    DesignParameter,
    DesignRange,
    DesignSpec,
    FunctionalRequirement,
    Normal,
    SpecFormatError,
    TankConfig,
    Uniform,
    parse_spec,
    range_bounds,
    validate_spec,
)

from conftest import FIXTURES, fixture_path, load_spec

MINIMAL = """
{
  "frs": [{"id": "fr_a", "nominal": 1.0, "tol_minus": 0.1, "tol_plus": 0.2}],
  "dps": [{"id": "dp_a", "nominal": 3.0}]
}
"""


# ---------------------------------------------------------------------------
# Happy-path parsing


def test_parse_minimal_document():
    spec = parse_spec(MINIMAL)
    assert spec.fr_ids() == ("fr_a",)
    assert spec.dp_ids() == ("dp_a",)
    assert spec.matrix is None
    assert spec.system_pdfs == {}
    assert spec.scenario is None
    assert range_bounds(spec.frs[0].design_range) == (0.9, 1.2)


@pytest.mark.parametrize("name", sorted(p.name for p in FIXTURES.glob("*.json")))
def test_every_fixture_round_trips(name: str):
    # Parsing loses nothing: the spec reads back every id, range, text
    # field, matrix entry, pdf-map key and the epsilon of the document.
    doc = json.loads(fixture_path(name).read_text())
    spec = load_spec(name)
    assert [(fr.id, fr.design_range.nominal, fr.design_range.tol_minus,
             fr.design_range.tol_plus, fr.description, fr.unit)
            for fr in spec.frs] == [
        (o["id"], o["nominal"], o["tol_minus"], o["tol_plus"],
         o.get("description", ""), o.get("unit", "")) for o in doc["frs"]]
    assert [(dp.id, dp.nominal, dp.description, dp.uncertainty is not None)
            for dp in spec.dps] == [
        (o["id"], o["nominal"], o.get("description", ""), "uncertainty" in o)
        for o in doc["dps"]]
    assert spec.matrix == (tuple(map(tuple, doc["matrix"])) if "matrix" in doc
                           else None)
    assert list(spec.system_pdfs) == list(doc.get("system_pdfs", {}))
    assert list(spec.noise_pdfs) == list(doc.get("noise_pdfs", {}))
    assert spec.epsilon == doc.get("epsilon", 0.0)
    assert (spec.scenario is None) == ("scenario" not in doc)


def test_fixture_corpus_parses_expected_shapes():
    tank = load_spec("tank.json")
    assert tank.fr_ids() == ("level", "temperature", "mix_duration")
    assert tank.scenario is not None
    assert tank.scenario.cycles == 10_000
    assert isinstance(tank.system_pdfs["level"], Uniform)

    faucet = load_spec("faucet_two_knob.json")
    assert faucet.matrix == ((2.0, 2.0), (8.0, -8.0))
    assert isinstance(faucet.dps[0].uncertainty, Uniform)

    sched = load_spec("scheduling.json")
    assert isinstance(sched.system_pdfs["control_loop_period"], Normal)


def test_asymmetric_tolerances_survive_round_trip():
    spec = parse_spec(
        '{"frs": [{"id": "f", "nominal": 5, "tol_minus": 0.5, "tol_plus": 2}],'
        ' "dps": []}'
    )
    assert range_bounds(spec.frs[0].design_range) == (4.5, 7.0)


# ---------------------------------------------------------------------------
# Parse errors carry the offending location


def test_syntax_error_reports_line_and_column():
    with pytest.raises(SpecFormatError) as err:
        parse_spec('{"frs": [}')
    assert err.value.where is not None
    assert "line 1" in err.value.where


def test_unknown_top_level_field_is_rejected():
    with pytest.raises(SpecFormatError, match="unknown field 'frz'"):
        parse_spec('{"frz": [], "dps": []}')


def test_missing_required_fr_field_names_the_entry():
    doc = '{"frs": [{"id": "f", "nominal": 1, "tol_minus": 0.1}], "dps": []}'
    with pytest.raises(SpecFormatError, match=r"frs\[0\]"):
        parse_spec(doc)


def test_boolean_is_not_a_number():
    doc = '{"frs": [{"id": "f", "nominal": true, "tol_minus": 0, "tol_plus": 1}], "dps": []}'
    with pytest.raises(SpecFormatError, match="must be a number"):
        parse_spec(doc)


def test_duplicate_ids_are_rejected_at_parse_time():
    doc = json.dumps({
        "frs": [
            {"id": "same", "nominal": 1, "tol_minus": 0.1, "tol_plus": 0.1},
            {"id": "same", "nominal": 2, "tol_minus": 0.1, "tol_plus": 0.1},
        ],
        "dps": [],
    })
    with pytest.raises(SpecFormatError, match="duplicate FR id 'same'"):
        parse_spec(doc)


def test_matrix_shape_must_match_fr_and_dp_counts():
    doc = json.dumps({
        "frs": [{"id": "f", "nominal": 1, "tol_minus": 0.1, "tol_plus": 0.1}],
        "dps": [{"id": "d", "nominal": 1}],
        "matrix": [[1.0], [2.0]],
    })
    with pytest.raises(SpecFormatError, match="one row per FR"):
        parse_spec(doc)
    doc = json.dumps({
        "frs": [{"id": "f", "nominal": 1, "tol_minus": 0.1, "tol_plus": 0.1}],
        "dps": [{"id": "d", "nominal": 1}],
        "matrix": [[1.0, 2.0]],
    })
    with pytest.raises(SpecFormatError, match="one entry per DP"):
        parse_spec(doc)


def test_matrix_entries_must_be_finite_numbers():
    doc = json.dumps({
        "frs": [{"id": "f", "nominal": 1, "tol_minus": 0.1, "tol_plus": 0.1}],
        "dps": [{"id": "d", "nominal": 1}],
        "matrix": [["x"]],
    })
    with pytest.raises(SpecFormatError, match=r"entry \[0\]\[0\]"):
        parse_spec(doc)


_MAX_INT = int(sys.float_info.max)  # float64's largest value, as an integer


def _two_by_two(matrix_text: str) -> str:
    return ('{"frs": [{"id": "f", "nominal": 1, "tol_minus": 0.1, "tol_plus": 0.1},'
            ' {"id": "g", "nominal": 1, "tol_minus": 0.1, "tol_plus": 0.1}],'
            ' "dps": [{"id": "d", "nominal": 1}, {"id": "e", "nominal": 1}],'
            f' "matrix": {matrix_text}}}')


@pytest.mark.parametrize("matrix_text, message", [
    ("[[1, 2], [3, true]]", r"entry \[1\]\[1\] must be a finite number"),
    ('[[1, "2"], [3, 4]]', r"entry \[0\]\[1\] must be a finite number"),
    ("[[1, 2], [null, 4]]", r"entry \[1\]\[0\] must be a finite number"),
    ("[[1, 2], [3, [4]]]", r"entry \[1\]\[1\] must be a finite number"),
    ("[[1, 2], [NaN, 4]]", r"entry \[1\]\[0\] must be a finite number"),
    ("[[1, 2], [4, NaN]]", r"entry \[1\]\[1\] must be a finite number"),
    ("[[Infinity, 2], [3, 4]]", r"entry \[0\]\[0\] must be a finite number"),
    ("[[1, -Infinity], [3, 4]]", r"entry \[0\]\[1\] must be a finite number"),
    # Rounded to float64 these are +-max; as integers they lie beyond it.
    (f"[[1, 2], [3, {_MAX_INT + 1}]]", r"entry \[1\]\[1\] must be a finite number"),
    (f"[[-{_MAX_INT + 1}, 2], [3, 4]]", r"entry \[0\]\[0\] must be a finite number"),
    (f"[[1, 2], [3, {10**400}]]", r"entry \[1\]\[1\] must be a finite number"),
    (f"[[1, 2], [NaN, {_MAX_INT + 1}]]", r"entry \[1\]\[0\] must be a finite number"),
    ("[[1, 2], [Infinity, -Infinity]]", r"entry \[1\]\[0\] must be a finite number"),
    # The first fault in document order is the one reported.
    ('[[1, "x"], 5]', r"entry \[0\]\[1\] must be a finite number"),
    ("[[1, 2], 5]", "row 1 must be an array"),
    ("[[1, 2], [3]]", "one entry per DP"),
    ('{"a": 1}', "matrix must be an array of rows"),
])
def test_matrix_faults_name_their_first_entry(matrix_text, message):
    with pytest.raises(SpecFormatError, match=message):
        parse_spec(_two_by_two(matrix_text))


@pytest.mark.parametrize("matrix_text, matrix", [
    (f"[[1, -0.0], [{_MAX_INT}, -1.7976931348623157e308]]",
     ((1.0, -0.0), (sys.float_info.max, -sys.float_info.max))),
    # Row sums beyond float64, as floats and as exact ints.
    (f"[[{_MAX_INT}, {_MAX_INT}], [1.5e308, 1.5e308]]",
     ((sys.float_info.max, sys.float_info.max), (1.5e308, 1.5e308))),
])
def test_matrix_entries_become_floats_up_to_float64_max(matrix_text, matrix):
    spec = parse_spec(_two_by_two(matrix_text))
    assert spec.matrix == matrix
    assert all(type(v) is float for row in spec.matrix for v in row)
    signs = [math.copysign(1.0, v) for row in matrix for v in row]  # -0.0 too
    assert [math.copysign(1.0, v) for row in spec.matrix for v in row] == signs


def test_negative_tolerance_is_rejected():
    doc = '{"frs": [{"id": "f", "nominal": 1, "tol_minus": -0.1, "tol_plus": 0}], "dps": []}'
    with pytest.raises(SpecFormatError, match="non-negative"):
        parse_spec(doc)


def test_unknown_pdf_kind_is_rejected():
    doc = json.dumps({
        "frs": [{"id": "f", "nominal": 1, "tol_minus": 0.1, "tol_plus": 0.1}],
        "dps": [],
        "system_pdfs": {"f": {"kind": "lognormal", "mu": 0, "sigma": 1}},
    })
    with pytest.raises(SpecFormatError, match="lognormal"):
        parse_spec(doc)


def test_pdf_map_key_must_be_a_known_fr():
    doc = json.dumps({
        "frs": [{"id": "f", "nominal": 1, "tol_minus": 0.1, "tol_plus": 0.1}],
        "dps": [],
        "system_pdfs": {"ghost": {"kind": "uniform", "lo": 0, "hi": 1}},
    })
    with pytest.raises(SpecFormatError, match="unknown FR id 'ghost'"):
        parse_spec(doc)


def test_bad_pdf_parameters_surface_with_field_path():
    doc = json.dumps({
        "frs": [{"id": "f", "nominal": 1, "tol_minus": 0.1, "tol_plus": 0.1}],
        "dps": [],
        "system_pdfs": {"f": {"kind": "normal", "mu": 0, "sigma": -1}},
    })
    with pytest.raises(SpecFormatError, match="system_pdfs.f"):
        parse_spec(doc)


def test_scenario_cycles_must_be_an_integer():
    doc = json.dumps({
        "frs": [{"id": "f", "nominal": 1, "tol_minus": 0.1, "tol_plus": 0.1}],
        "dps": [],
        "scenario": {"cycles": 10.5},
    })
    with pytest.raises(SpecFormatError, match="cycles"):
        parse_spec(doc)


def test_scenario_rejects_unknown_noise_channel():
    doc = json.dumps({
        "frs": [{"id": "f", "nominal": 1, "tol_minus": 0.1, "tol_plus": 0.1}],
        "dps": [],
        "scenario": {"sensor_noise": {"pressure": {"kind": "normal", "mu": 0, "sigma": 1}}},
    })
    with pytest.raises(SpecFormatError, match="pressure"):
        parse_spec(doc)


def test_non_object_document_is_rejected():
    with pytest.raises(SpecFormatError, match="expected an object"):
        parse_spec("[1, 2, 3]")


# ---------------------------------------------------------------------------
# Dataclass-level validation


def test_design_range_rejects_non_finite_and_negative():
    with pytest.raises(ValueError):
        DesignRange(float("nan"), 0.1, 0.1)
    with pytest.raises(ValueError):
        DesignRange(1.0, -0.1, 0.1)
    # Zero width is representable; validate_spec flags it instead.
    DesignRange(1.0, 0.0, 0.0)


def test_fr_and_dp_require_nonempty_ids():
    with pytest.raises(ValueError):
        FunctionalRequirement("", DesignRange(1.0, 0.1, 0.1))
    with pytest.raises(ValueError):
        DesignParameter("", 1.0)


# ---------------------------------------------------------------------------
# Semantic validation (validate_spec)


def _spec(**overrides) -> DesignSpec:
    base = dict(
        frs=(FunctionalRequirement("f1", DesignRange(1.0, 0.1, 0.1)),),
        dps=(DesignParameter("d1", 1.0),),
        matrix=((1.0,),),
    )
    base.update(overrides)
    return DesignSpec(**base)


def test_valid_spec_has_no_issues():
    assert validate_spec(_spec()) == []


_F1 = FunctionalRequirement("f1", DesignRange(1.0, 0.1, 0.1))
_D1 = DesignParameter("d1", 1.0)


@pytest.mark.parametrize("overrides, message", [
    (dict(frs=(), matrix=None), "at least one FR"),
    (dict(frs=(_F1, _F1), matrix=((1.0,), (1.0,))), "duplicate FR id 'f1'"),
    (dict(dps=(_D1, _D1), matrix=((1.0, 1.0),)), "duplicate DP id 'd1'"),
    (dict(matrix=((1.0,), (2.0,))), "one row per FR"),
    (dict(matrix=((1.0, 2.0),)), "one entry per DP"),
    (dict(dps=(), matrix=((),)), "at least one DP column"),
    (dict(system_pdfs={"ghost": Uniform(0.0, 1.0)}), "unknown FR id 'ghost'"),
    (dict(noise_pdfs={"ghost": Normal(0.0, 1.0)}), "unknown FR id 'ghost'"),
])
def test_spec_structure_is_checked_on_construction(overrides, message):
    with pytest.raises(ValueError, match=message):
        _spec(**overrides)


def test_zero_width_range_is_flagged():
    spec = _spec(frs=(FunctionalRequirement("f1", DesignRange(1.0, 0.0, 0.0)),))
    issues = validate_spec(spec)
    assert any("zero-width" in msg for msg in issues)


def test_fr_without_any_probability_source_is_flagged():
    spec = _spec(matrix=None)
    issues = validate_spec(spec)
    assert any("no system range source" in msg for msg in issues)


def test_scenario_counts_as_a_probability_source():
    frs = tuple(
        FunctionalRequirement(name, DesignRange(1.0, 0.1, 0.1))
        for name in ("level", "temperature", "mix_duration")
    )
    spec = DesignSpec(frs=frs, dps=(), matrix=None, scenario=TankConfig())
    assert validate_spec(spec) == []


def test_scenario_with_wrong_fr_count_is_flagged():
    with pytest.raises(ValueError, match="exactly 3 FRs"):
        _spec(matrix=None, system_pdfs={"f1": Uniform(0.0, 2.0)},
              scenario=TankConfig())
    doc = {
        "frs": [{"id": "f1", "nominal": 1.0, "tol_minus": 0.1, "tol_plus": 0.1}],
        "dps": [],
        "scenario": {},
    }
    with pytest.raises(SpecFormatError, match="exactly 3 FRs"):
        parse_spec(json.dumps(doc))


def test_validation_is_pure_and_repeatable():
    spec = _spec(frs=(FunctionalRequirement("f1", DesignRange(1.0, 0.0, 0.0)),))
    assert validate_spec(spec) == validate_spec(spec)


def test_fixture_corpus_passes_validation():
    for name in ("tank.json", "faucet_two_knob.json", "faucet_mixer_tap.json",
                 "scheduling.json", "machining_cascade.json", "disjoint.json",
                 "rod_cutting.json", "tank_turbulent.json"):
        spec = load_spec(name)
        assert validate_spec(spec) == [], name


def test_nonsquare_fixture_parses_but_is_structurally_degenerate():
    spec = load_spec("nonsquare.json")
    # Parsing succeeds; the shape mismatch is a classification concern,
    # not a document error, so validation stays quiet about squareness.
    assert len(spec.frs) != len(spec.dps)
