"""Report documents: deterministic JSON rendering and the fixed schemas."""

from __future__ import annotations

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from axdesign import (
    McConfig,
    Normal,
    SystemInfoReport,
    classification_doc,
    classify,
    conditional_chain_information,
    fr_information,
    info_doc,
    render_json,
    render_text,
    spec_echo,
    system_information_from_samples,
    system_information_independent,
    system_information_joint,
    LinearModel,
)
from axdesign.info import InfoResult

from conftest import load_spec, make_frs


# ---------------------------------------------------------------------------
# JSON rendering


def test_floats_round_trip_through_the_json_text():
    doc = {"x": 1.0 / 3.0, "y": 0.1 + 0.2, "z": 1e-300, "zero": 0.0, "short": 6.95}
    text = render_json(doc)
    assert json.loads(text) == doc
    for key, value in doc.items():
        assert f'"{key}": {value!r}' in text


def test_infinities_render_as_strings():
    text = render_json({"up": math.inf, "down": -math.inf})
    parsed = json.loads(text)
    assert parsed == {"up": "inf", "down": "-inf"}


def test_nan_is_refused():
    with pytest.raises(ValueError, match="NaN"):
        render_json({"x": math.nan})


def test_booleans_are_not_integers():
    assert json.loads(render_json({"flag": True, "count": 1})) == \
        {"flag": True, "count": 1}
    assert '"flag": true' in render_json({"flag": True, "count": 1})


def test_unrenderable_types_are_refused():
    with pytest.raises(TypeError):
        render_json({"x": {1, 2}})
    with pytest.raises(TypeError):
        render_json({"x": {1: 2}})


def test_rendering_is_deterministic_and_order_preserving():
    doc = {"b": 1, "a": 2, "nested": {"z": [1.5, None], "empty": {}}}
    assert render_json(doc) == render_json(doc)
    text = render_json(doc)
    # Keys stay in insertion order, not sorted.
    assert text.index('"b"') < text.index('"a"')
    assert json.loads(text) == doc


def test_output_ends_with_a_newline():
    assert render_json({}).endswith("\n")


def _strict(value):
    """Reference: ``value`` with every infinity as the string ``"inf"`` /
    ``"-inf"``; NaN raises. ``json.dumps(_strict(doc), indent=2) + "\\n"``
    is the report text that ``render_json`` must write."""
    if isinstance(value, float):
        if math.isnan(value):
            raise ValueError("reports must not contain NaN")
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return value
    if isinstance(value, dict):
        return {key: _strict(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_strict(item) for item in value]
    return value


_EDGE_FLOATS = [0.0, -0.0, 5e-324, -2.225073858507201e-308, 1e308, -1.7976931348623157e308,
                math.inf, -math.inf]
_SCALARS = st.one_of(
    st.text(),  # any code point: non-ASCII, control characters, quotes, backslashes
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(2**63 - 2, 2**80) | st.integers(-(2**80), -(2**63) + 2),
    st.floats(allow_nan=False),
    st.sampled_from(_EDGE_FLOATS),
    st.floats(allow_nan=False).map(np.float64),
)
_VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.lists(inner, max_size=4).map(tuple),
                            st.dictionaries(st.text(), inner, max_size=4)),
    max_leaves=24)


def _holding(leaf):
    """Documents with ``leaf`` at some depth, among other values."""
    around = st.lists(_VALUES, max_size=2)
    return st.recursive(
        leaf,
        lambda inner: st.one_of(
            st.builds(lambda before, item, after: [*before, item, *after],
                      around, inner, around),
            st.builds(lambda key, item, rest: {**rest, key: item},
                      st.text(), inner, st.dictionaries(st.text(), _VALUES, max_size=2))),
        max_leaves=6).map(lambda value: {"doc": value})


@settings(max_examples=300, deadline=None)
@given(doc=st.dictionaries(st.text(), _VALUES))
def test_render_json_writes_the_stdlib_indented_text(doc):
    assert render_json(doc) == json.dumps(_strict(doc), indent=2) + "\n"


@settings(max_examples=100, deadline=None)
@given(doc=_holding(st.sampled_from([math.nan, -math.nan, np.float64("nan")])))
def test_a_nan_at_any_depth_is_refused(doc):
    with pytest.raises(ValueError, match="reports must not contain NaN"):
        _strict(doc)
    with pytest.raises(ValueError, match="reports must not contain NaN"):
        render_json(doc)


@settings(max_examples=100, deadline=None)
@given(doc=_holding(st.sets(st.integers(), max_size=2)))
def test_a_set_at_any_depth_is_refused(doc):
    with pytest.raises(TypeError):
        json.dumps(_strict(doc), indent=2)
    with pytest.raises(TypeError):
        render_json(doc)


# ---------------------------------------------------------------------------
# Classification documents: fixed four-key schema


def _doc_for(matrix):
    n = np.asarray(matrix).shape
    fr_ids = [f"fr{i}" for i in range(n[0])]
    dp_ids = [f"dp{j}" for j in range(n[1])]
    return classification_doc(classify(matrix), fr_ids, dp_ids)


def test_uncoupled_doc_has_sequence_and_null_blocks():
    doc = _doc_for(np.eye(2))
    assert doc == {
        "class": "uncoupled",
        "sequence": [["fr0", "dp0"], ["fr1", "dp1"]],
        "blocks": None,
        "reason": None,
    }


def test_decoupled_doc_lists_the_adjustment_sequence():
    doc = _doc_for([[1.0, 0.0], [1.0, 1.0]])
    assert doc["class"] == "decoupled"
    assert doc["sequence"] == [["fr0", "dp0"], ["fr1", "dp1"]]
    assert doc["blocks"] is None


def test_coupled_doc_lists_blocks_of_pairs():
    doc = _doc_for([[1.0, 1.0], [1.0, 1.0]])
    assert doc["class"] == "coupled"
    assert doc["sequence"] is None
    assert len(doc["blocks"]) == 1
    assert sorted(fr for fr, _ in doc["blocks"][0]) == ["fr0", "fr1"]


def test_degenerate_doc_carries_the_reason():
    doc = _doc_for(np.ones((1, 2)))
    assert doc["class"] == "degenerate"
    assert doc["reason"] == "non_square"
    assert doc["sequence"] is None and doc["blocks"] is None


# ---------------------------------------------------------------------------
# Info documents


def test_analytic_info_doc_shape():
    spec = load_spec("scheduling.json")
    results = [fr_information(spec.system_pdfs[fr.id], fr.design_range)
               for fr in spec.frs]
    report = system_information_independent(results, spec.frs)
    doc = info_doc(report, spec)
    assert doc["method"] == "analytic"
    assert doc["order"] is None
    assert doc["mc"] is None
    assert [row["fr"] for row in doc["per_fr"]] == list(spec.fr_ids())
    row = doc["per_fr"][0]
    assert set(row) == {"fr", "probability", "bits", "std_error",
                        "design_range", "system_pdf"}
    assert row["system_pdf"].startswith("normal")
    assert row["design_range"]["lower"] < row["design_range"]["upper"]


def test_monte_carlo_info_doc_reports_provenance():
    spec = load_spec("faucet_two_knob.json")
    model = LinearModel(spec.matrix, [dp.uncertainty for dp in spec.dps])
    report = system_information_joint(model, spec.frs, McConfig(seed=3, n_samples=500))
    doc = info_doc(report, spec)
    assert doc["method"] == "joint"
    assert doc["mc"] == {"seed": 3, "n_samples": 500,
                         "std_error": report.mc.std_error}
    assert all(row["system_pdf"] == "(sampled)" for row in doc["per_fr"])


def test_a_report_wants_one_fr_per_row():
    frs = make_frs((0.0, 1.0), (0.0, 2.0))
    rows = (InfoResult(1.0, 0.0),)
    for kept in (frs[:0], frs):
        with pytest.raises(ValueError, match=f"^{len(kept)} FRs for 1 rows$"):
            SystemInfoReport(method="analytic", per_fr=rows, frs=kept,
                             system_probability=1.0, system_bits=0.0)


def test_a_chain_doc_is_labeled_in_chain_order_from_the_report():
    spec = load_spec("machining_cascade.json")
    model = LinearModel(spec.matrix, [dp.uncertainty for dp in spec.dps])
    report = conditional_chain_information(model, [2, 1, 0], spec.frs,
                                           McConfig(n_samples=2000))
    doc = info_doc(report, spec)
    ids = [spec.frs[i].id for i in (2, 1, 0)]
    assert doc["order"] == [row["fr"] for row in doc["per_fr"]] == ids


def test_rows_are_labeled_from_the_report_not_the_spec():
    # FRs x0 and x1 are not scheduling.json's: a sampled row needs nothing
    # of the spec, and an analytic row names the FR that lacks a pdf.
    spec = load_spec("scheduling.json")
    frs = make_frs((-1.0, 1.0), (-2.0, 2.0))
    joint = system_information_from_samples(np.zeros((4, 2)), frs)
    doc = info_doc(joint, spec)
    assert [row["fr"] for row in doc["per_fr"]] == ["x0", "x1"]
    assert doc["per_fr"][1]["design_range"] == {"lower": -2.0, "upper": 2.0}
    analytic = system_information_independent([InfoResult(1.0, 0.0)] * 2, frs)
    with pytest.raises(ValueError, match="^FR 'x0' has no system pdf"):
        info_doc(analytic, spec)


def test_an_analytic_row_without_a_system_pdf_is_refused():
    spec = load_spec("scheduling.json")
    results = [fr_information(spec.system_pdfs[fr.id], fr.design_range)
               for fr in spec.frs]
    report = system_information_independent(results, spec.frs)
    first = spec.frs[0].id
    pdfs = {k: v for k, v in spec.system_pdfs.items() if k != first}
    with pytest.raises(ValueError, match=f"^FR {first!r} has no system pdf"):
        info_doc(report, dataclasses.replace(spec, system_pdfs=pdfs))


def test_spec_echo_lists_ids():
    spec = load_spec("tank.json")
    assert spec_echo(spec) == {
        "frs": ["level", "temperature", "mix_duration"],
        "dps": ["fill_valve_setpoint", "heater_setpoint", "mixer_timer"],
    }


# ---------------------------------------------------------------------------
# Text rendering (human-oriented; smoke-level checks)


def test_text_view_of_a_classification():
    spec = load_spec("machining_cascade.json")
    doc = {
        "command": "classify",
        "spec": spec_echo(spec),
        "epsilon": 0.0,
        "classification": classification_doc(
            classify(spec.matrix), spec.fr_ids(), spec.dp_ids()),
        "warnings": [],
    }
    text = render_text(doc)
    assert "classification: decoupled" in text
    assert "adjustment sequence" in text
    assert text.endswith("\n")


def test_text_view_handles_infinite_bits():
    spec = load_spec("disjoint.json")
    results = [fr_information(spec.system_pdfs[fr.id], fr.design_range)
               for fr in spec.frs]
    report = system_information_independent(results, spec.frs)
    assert report.system_bits == math.inf
    doc = {"info": info_doc(report, spec)}
    # The document form carries "inf" as a string and the text view prints it.
    assert json.loads(render_json(doc))["info"]["system_bits"] == "inf"
    assert "inf" in render_text(doc)


def test_text_view_aligns_long_fr_names():
    spec = load_spec("scheduling.json")
    results = [fr_information(spec.system_pdfs[fr.id], fr.design_range)
               for fr in spec.frs]
    report = system_information_independent(results, spec.frs)
    text = render_text({"info": info_doc(report, spec)})
    header = next(line for line in text.splitlines() if line.startswith("FR"))
    row = next(line for line in text.splitlines()
               if line.startswith("control_loop_period"))
    # The probability column starts at the same offset in every line.
    assert header.index("probability") > len("control_loop_period")
    assert len(row.split()) >= 4
