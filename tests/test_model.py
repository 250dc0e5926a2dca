"""Design-spec data model: JSON parsing, spec invariants and validation
messages."""

from __future__ import annotations

import json
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from axdesign import (
    DesignParameter,
    DesignRange,
    DesignSpec,
    Empirical,
    Normal,
    SpecFormatError,
    TankConfig,
    Triangular,
    Uniform,
    parse_spec,
    validate_spec,
)
from axdesign.model import FunctionalRequirement, range_bounds

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
    if "matrix" in doc:
        assert spec.matrix.dtype == np.float64 and spec.matrix.tolist() == doc["matrix"]
    else:
        assert spec.matrix is None
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
    assert faucet.matrix.tolist() == [[2.0, 2.0], [8.0, -8.0]]
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
    # Row sums that overflow do not hide a later fault.
    ("[[1e308, 1e308], [3, true]]", r"entry \[1\]\[1\] must be a finite number"),
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
    ("[[1e308, 1e308], [1e308, 1e308]]", ((1e308, 1e308), (1e308, 1e308))),
])
def test_matrix_entries_become_floats_up_to_float64_max(matrix_text, matrix):
    spec = parse_spec(_two_by_two(matrix_text))
    assert spec.matrix.dtype == np.float64
    assert spec.matrix.tolist() == [list(row) for row in matrix]
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
    with pytest.raises(SpecFormatError,
                       match=r"^scenario: cycles must be an integer in \[1, 10000000\]$"):
        parse_spec(doc)


def test_scenario_rejects_unknown_noise_channel():
    doc = json.dumps({
        "frs": [{"id": "f", "nominal": 1, "tol_minus": 0.1, "tol_plus": 0.1}],
        "dps": [],
        "scenario": {"sensor_noise": {"pressure": {"kind": "normal", "mu": 0, "sigma": 1}}},
    })
    with pytest.raises(SpecFormatError,
                       match="^scenario: unknown sensor noise channel 'pressure'$"):
        parse_spec(doc)


@pytest.mark.parametrize("token, kind", [
    ("true", "number"), ('"1"', "number"), (str(10**400), "finite number"),
    ("NaN", "finite number"), ("Infinity", "finite number"),
])
@pytest.mark.parametrize("pdf, field", [
    ('{"kind": "uniform", "lo": 0, "hi": %s}', "field 'hi'"),
    ('{"kind": "empirical", "samples": [0, %s]}', r"samples\[1\]"),
])
def test_pdf_numbers_must_be_finite(pdf, field, token, kind):
    doc = ('{"frs": [{"id": "f", "nominal": 1, "tol_minus": 0.1, "tol_plus": 0.1}], '
           '"dps": [], "system_pdfs": {"f": %s}}' % (pdf % token))
    with pytest.raises(SpecFormatError, match=f"^system_pdfs.f: {field} must be a {kind}$"):
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
    (dict(matrix=np.ones((2, 1))), "one row per FR"),
    (dict(matrix=np.array([[1.0, 2.0]])), "one entry per DP"),
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


# ---------------------------------------------------------------------------
# Property: the codec against its reference


_FLOAT_MAX = sys.float_info.max


def _ref_is_real(value) -> bool:
    return (type(value) is not bool and isinstance(value, (int, float))
            and -_FLOAT_MAX <= value <= _FLOAT_MAX)


def _ref_require_object(obj, where):
    if not isinstance(obj, dict):
        raise SpecFormatError("expected an object", where)


def _ref_check_keys(obj, allowed, where):
    for key in obj:
        if key not in allowed:
            raise SpecFormatError(f"unknown field {key!r}", where)


def _ref_fault(v) -> str:
    return "must be a finite number" if type(v) in (int, float) else "must be a number"


def _ref_number(obj, key, where, required=True, default=None):
    if key not in obj:
        if required:
            raise SpecFormatError(f"missing required field {key!r}", where)
        return default
    v = obj[key]
    if not _ref_is_real(v):
        raise SpecFormatError(f"field {key!r} {_ref_fault(v)}", where)
    return float(v)


def _ref_string(obj, key, where, required=True, default=""):
    if key not in obj:
        if required:
            raise SpecFormatError(f"missing required field {key!r}", where)
        return default
    v = obj[key]
    if not isinstance(v, str):
        raise SpecFormatError(f"field {key!r} must be a string", where)
    return v


def _ref_made_at(where, make, *args, **kwargs):
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise SpecFormatError(str(exc), where) from exc


_REF_PDF_FIELDS = {
    "uniform": (Uniform, ("lo", "hi")),
    "normal": (Normal, ("mu", "sigma")),
    "triangular": (Triangular, ("lo", "mode", "hi")),
    "empirical": (Empirical, ("samples",)),
}


def _ref_pdf_from_obj(obj, where="pdf"):
    _ref_require_object(obj, where)
    kind = _ref_string(obj, "kind", where)
    if kind not in _REF_PDF_FIELDS:
        raise SpecFormatError(f"unknown pdf kind {kind!r}", where)
    pdf_type, fields = _REF_PDF_FIELDS[kind]
    _ref_check_keys(obj, ("kind",) + fields, where)
    if pdf_type is not Empirical:
        return _ref_made_at(where, pdf_type, *[_ref_number(obj, key, where) for key in fields])
    samples = obj.get("samples")
    if not isinstance(samples, list) or not samples:
        raise SpecFormatError("field 'samples' must be a non-empty array", where)
    for i, v in enumerate(samples):
        if not _ref_is_real(v):
            raise SpecFormatError(f"samples[{i}] {_ref_fault(v)}", where)
    return _ref_made_at(where, Empirical, tuple(samples))


_REF_SCENARIO_NUMBERS = ("level_low", "level_high", "temp_setpoint", "mix_duration", "timestep")
_REF_GAIN_KEYS = ("mixer_to_temp", "heater_to_level", "mixer_to_level")


def _ref_scenario_from_obj(obj, where="scenario"):
    _ref_require_object(obj, where)
    _ref_check_keys(obj, _REF_SCENARIO_NUMBERS + ("sensor_noise", "coupling_gains", "cycles"),
                    where)
    kwargs = {"cycles": obj["cycles"]} if "cycles" in obj else {}
    for key in _REF_SCENARIO_NUMBERS:
        v = _ref_number(obj, key, f"{where}.{key}", required=False)
        if v is not None:
            kwargs[key] = v
    if "sensor_noise" in obj:
        block = obj["sensor_noise"]
        _ref_require_object(block, f"{where}.sensor_noise")
        kwargs["sensor_noise"] = {
            ch: _ref_pdf_from_obj(block[ch], f"{where}.sensor_noise.{ch}") for ch in block
        }
    if "coupling_gains" in obj:
        block = obj["coupling_gains"]
        _ref_require_object(block, f"{where}.coupling_gains")
        _ref_check_keys(block, _REF_GAIN_KEYS, f"{where}.coupling_gains")
        for key in block:
            kwargs[key] = _ref_number(block, key, f"{where}.coupling_gains.{key}")
    return _ref_made_at(where, TankConfig, **kwargs)


_REF_FR_KEYS = ("id", "description", "nominal", "tol_minus", "tol_plus", "unit")
_REF_DP_KEYS = ("id", "description", "nominal", "uncertainty")
_REF_TOP_KEYS = ("frs", "dps", "matrix", "system_pdfs", "noise_pdfs", "epsilon", "scenario")


def _ref_fr_from_obj(obj, where):
    _ref_require_object(obj, where)
    _ref_check_keys(obj, _REF_FR_KEYS, where)
    fr_id = _ref_string(obj, "id", where)
    dr = _ref_made_at(where, DesignRange, _ref_number(obj, "nominal", where),
                      _ref_number(obj, "tol_minus", where), _ref_number(obj, "tol_plus", where))
    return _ref_made_at(where, FunctionalRequirement, fr_id, dr,
                        description=_ref_string(obj, "description", where, required=False),
                        unit=_ref_string(obj, "unit", where, required=False))


def _ref_dp_from_obj(obj, where):
    _ref_require_object(obj, where)
    _ref_check_keys(obj, _REF_DP_KEYS, where)
    dp_id = _ref_string(obj, "id", where)
    unc = None
    if "uncertainty" in obj:
        unc = _ref_pdf_from_obj(obj["uncertainty"], f"{where}.uncertainty")
    return _ref_made_at(where, DesignParameter, dp_id, _ref_number(obj, "nominal", where),
                        description=_ref_string(obj, "description", where, required=False),
                        uncertainty=unc)


def _ref_pdf_map_from_obj(obj, where):
    _ref_require_object(obj, where)
    return {key: _ref_pdf_from_obj(val, f"{where}.{key}") for key, val in obj.items()}


def _ref_matrix_from_obj(raw):
    if not isinstance(raw, list):
        raise SpecFormatError("matrix must be an array of rows", "matrix")
    for i, row in enumerate(raw):
        if not isinstance(row, list):
            raise SpecFormatError(f"row {i} must be an array", "matrix")
        for j, v in enumerate(row):
            if not _ref_is_real(v):
                raise SpecFormatError(f"entry [{i}][{j}] must be a finite number", "matrix")
    return raw


def _ref_parse_spec(text):
    """Reference: the spec codec as it was before its fast paths, a check
    and a helper call per value, on the same types and invariants."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecFormatError(
            f"syntax error: {exc.msg}", f"line {exc.lineno} column {exc.colno}"
        ) from exc
    except (ValueError, RecursionError) as exc:
        reason = str(exc).partition("; use sys.set_int_max_str_digits()")[0]
        raise SpecFormatError(f"cannot decode JSON: {reason}", "document") from exc
    _ref_require_object(doc, "document")
    _ref_check_keys(doc, _REF_TOP_KEYS, "document")
    for key in ("frs", "dps"):
        if key not in doc or not isinstance(doc[key], list):
            raise SpecFormatError(f"missing or non-array field {key!r}", "document")
    frs = tuple(_ref_fr_from_obj(o, f"frs[{i}]") for i, o in enumerate(doc["frs"]))
    dps = tuple(_ref_dp_from_obj(o, f"dps[{i}]") for i, o in enumerate(doc["dps"]))
    matrix = _ref_matrix_from_obj(doc["matrix"]) if "matrix" in doc else None
    system_pdfs = _ref_pdf_map_from_obj(doc["system_pdfs"], "system_pdfs") \
        if "system_pdfs" in doc else {}
    noise_pdfs = _ref_pdf_map_from_obj(doc["noise_pdfs"], "noise_pdfs") \
        if "noise_pdfs" in doc else {}
    epsilon = _ref_number(doc, "epsilon", "epsilon", required=False, default=0.0)
    scenario = _ref_scenario_from_obj(doc["scenario"]) if "scenario" in doc else None
    return _ref_made_at("document", DesignSpec, frs, dps, matrix, system_pdfs, noise_pdfs,
                        epsilon, scenario)


# JSON numbers as json.loads gives them: ints and floats, near 0 or anywhere
# in float64's finite range.
_JSON_REALS = st.one_of(st.integers(-5, 5), st.floats(-10.0, 10.0),
                        st.floats(allow_nan=False, allow_infinity=False))
_JSON_SPREADS = st.one_of(st.integers(1, 5), st.floats(1e-3, 10.0))


def _json_pdfs():
    ends = st.lists(_JSON_REALS, min_size=2, max_size=2, unique=True).map(sorted)
    return st.one_of(
        ends.map(lambda v: {"kind": "uniform", "lo": v[0], "hi": v[1]}),
        st.builds(lambda mu, sigma: {"kind": "normal", "mu": mu, "sigma": sigma},
                  _JSON_REALS, _JSON_SPREADS),
        st.lists(_JSON_REALS, min_size=3, max_size=3).map(sorted).filter(lambda v: v[0] < v[2])
        .map(lambda v: {"kind": "triangular", "lo": v[0], "mode": v[1], "hi": v[2]}),
        st.lists(_JSON_REALS, min_size=1, max_size=4).map(
            lambda v: {"kind": "empirical", "samples": v}))


def _with_optional(draw, obj, optional):
    """``obj`` with each of the ``optional`` entries drawn in or out."""
    for key, strategy in optional.items():
        if draw(st.booleans()):
            obj[key] = draw(strategy)
    return obj


@st.composite
def _spec_docs(draw):
    """JSON spec documents that parse, with every optional block drawn in or
    out, numbers as ints or floats, and fields in either order."""
    scenario = draw(st.booleans())
    n_frs = 3 if scenario else draw(st.integers(1, 4))
    n_dps = draw(st.integers(0 if scenario else 1, 4))
    text = st.text(max_size=3)
    frs = [_with_optional(draw, {"id": f"f{i}", "nominal": draw(_JSON_REALS),
                                 "tol_minus": draw(st.integers(0, 3) | st.floats(0.0, 10.0)),
                                 "tol_plus": draw(st.integers(0, 3) | st.floats(0.0, 10.0))},
                          {"description": text, "unit": text}) for i in range(n_frs)]
    dps = [_with_optional(draw, {"id": f"d{i}", "nominal": draw(_JSON_REALS)},
                          {"description": text, "uncertainty": _json_pdfs()})
           for i in range(n_dps)]
    fr_ids = [fr["id"] for fr in frs]
    pdf_maps = st.lists(st.sampled_from(fr_ids), unique=True).flatmap(
        lambda ids: st.fixed_dictionaries({fr_id: _json_pdfs() for fr_id in ids}))
    optional = {"system_pdfs": pdf_maps, "noise_pdfs": pdf_maps,
                "epsilon": st.integers(0, 2) | st.floats(0.0, 1.0)}
    if n_dps:
        optional["matrix"] = st.lists(st.lists(_JSON_REALS, min_size=n_dps, max_size=n_dps),
                                      min_size=n_frs, max_size=n_frs)
    if scenario:
        optional["scenario"] = st.fixed_dictionaries({}, optional={
            "cycles": st.integers(1, 50), "timestep": st.sampled_from([0.1, 1]),
            "sensor_noise": st.fixed_dictionaries({}, optional={
                "level": _json_pdfs(), "temp": _json_pdfs()}),
            "coupling_gains": st.fixed_dictionaries({}, optional={
                "mixer_to_temp": st.floats(0.0, 0.2), "heater_to_level": st.just(0)})})
    doc = _with_optional(draw, {"frs": frs, "dps": dps}, optional)
    items = list(doc.items())
    return dict(draw(st.permutations(items))) if draw(st.booleans()) else doc


def _nodes(node):
    """``node`` and every array and object below it."""
    yield node
    children = node.values() if isinstance(node, dict) else node if isinstance(node, list) else ()
    for child in children:
        if isinstance(child, (dict, list)):
            yield from _nodes(child)


_REPLACEMENTS = {
    "wrong type": ["x", [], {}, None, 1.5, [1.0]],
    "non-finite": [math.nan, math.inf, -math.inf],
    "bool": [True, False],
    "big int": [10**400, -(10**400)],
}


def _decoded(parse, text):
    """What ``parse(text)`` gives, in a form that compares exactly: the
    exception's type and text, or every decoded field's repr (int and float
    apart) and the matrix's bytes."""
    try:
        spec = parse(text)
    except Exception as exc:  # noqa: BLE001 - the type is part of the result
        return type(exc), str(exc)
    matrix = None if spec.matrix is None else (spec.matrix.dtype, spec.matrix.shape,
                                               spec.matrix.tobytes())
    return (repr(spec.frs), repr(spec.dps), matrix, repr(spec.system_pdfs),
            repr(spec.noise_pdfs), repr(spec.epsilon), repr(spec.scenario))


@settings(max_examples=400, deadline=None)
@given(doc=_spec_docs(), data=st.data())
def test_parse_spec_decodes_what_the_reference_decodes(doc, data):
    # One field at most is changed: a value of the wrong type, nan or an
    # infinity, a bool, an int beyond float64, a missing key, or one or two
    # unknown keys at any place in an object, where the first must be named.
    mutation = data.draw(st.sampled_from([None, "unknown key", "missing key",
                                          *_REPLACEMENTS]))
    nodes = list(_nodes(doc))
    if mutation == "unknown key":
        obj = data.draw(st.sampled_from([node for node in nodes if isinstance(node, dict)]))
        items = list(obj.items())
        for name in data.draw(st.sampled_from([["bogus"], ["bogus", "zz"]])):
            items.insert(data.draw(st.integers(0, len(items))), (name, 1))
        obj.clear()
        obj.update(items)
    elif mutation == "missing key":
        obj = data.draw(st.sampled_from([node for node in nodes if isinstance(node, dict)]))
        if obj:
            del obj[data.draw(st.sampled_from(list(obj)))]
    elif mutation is not None:
        container = data.draw(st.sampled_from([node for node in nodes if node]))
        key = data.draw(st.sampled_from(list(container.keys() if isinstance(container, dict)
                                             else range(len(container)))))
        container[key] = data.draw(st.sampled_from(_REPLACEMENTS[mutation]))
    text = json.dumps(doc)
    expected = _decoded(_ref_parse_spec, text)
    assert _decoded(parse_spec, text) == expected
    if mutation is None:
        assert not isinstance(expected[0], type), expected
