"""Deterministic report rendering.

Reports are plain dict documents with a fixed key order. The JSON bytes
are those of the stdlib's ``json.dumps(doc, indent=2)``, written in one
walk of the document, so a float is written as Python's shortest
round-trip ``repr``. Infinities are written as the JSON strings
``"inf"`` / ``"-inf"``, because infinite bits are a legitimate result,
not an error, and NaN is refused, so the output is strict JSON. Identical
inputs therefore produce byte-identical output. The text format is a
human-oriented view of the same document and is never parsed back.
"""

from __future__ import annotations

import math
from json.encoder import encode_basestring_ascii as _quote

from .coupling import (Classification, Coupled, Decoupled, Degenerate,
                       Uncoupled)
from .info import SystemInfoReport
from .model import DesignSpec, range_bounds

__all__ = [
    "render_json",
    "render_text",
    "classification_doc",
    "info_doc",
    "spec_echo",
]


def render_json(doc: dict) -> str:
    out: list[str] = []
    _write(doc, "\n", out)
    out.append("\n")
    return "".join(out)


def _write(value, newline: str, out: list[str]) -> None:
    """Append ``value``'s JSON text to ``out``; ``newline`` breaks a line and
    indents it to ``value``'s own depth.

    Types are tested in ``json``'s order, so a subclass is written as the
    stdlib writes it. NaN raises ``ValueError``, and any other type, or a
    key that is not a string, ``TypeError``.
    """
    if isinstance(value, str):
        out.append(_quote(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, float):
        if value != value:
            raise ValueError("reports must not contain NaN")
        if value == math.inf:
            out.append('"inf"')
        elif value == -math.inf:
            out.append('"-inf"')
        else:
            out.append(float.__repr__(value))
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in value:
            out.append(sep)
            _write(item, inner, out)
            sep = "," + inner
        out.append(newline + "]")
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key, item in value.items():
            out.append(sep + _quote(key) + ": ")
            _write(item, inner, out)
            sep = "," + inner
        out.append(newline + "}")
    else:
        raise TypeError(f"{type(value).__name__} cannot be written to a report")


def spec_echo(spec: DesignSpec) -> dict:
    return {"frs": list(spec.fr_ids()), "dps": list(spec.dp_ids())}


def _pair_ids(pair, fr_ids, dp_ids):
    fr_idx, dp_idx = pair
    return [fr_ids[fr_idx], dp_ids[dp_idx]]


def classification_doc(cls: Classification, fr_ids, dp_ids) -> dict:
    """Classification block with a fixed schema: the inapplicable fields
    are null rather than absent."""
    doc = {"class": cls.kind, "sequence": None, "blocks": None, "reason": None}
    if isinstance(cls, Uncoupled):
        doc["sequence"] = [_pair_ids(p, fr_ids, dp_ids) for p in cls.pairs]
    elif isinstance(cls, Decoupled):
        doc["sequence"] = [_pair_ids(p, fr_ids, dp_ids) for p in cls.order]
    elif isinstance(cls, Coupled):
        doc["blocks"] = [[_pair_ids(p, fr_ids, dp_ids) for p in block]
                         for block in cls.blocks]
    elif isinstance(cls, Degenerate):
        doc["reason"] = cls.reason.value
    return doc


def info_doc(report: SystemInfoReport, spec: DesignSpec) -> dict:
    """Info block for a report document.

    Rows are the report's own FRs, in its row order, each labeled with
    its id and design range and the distribution its probability came
    from: on the analytic route the FR's system pdf in ``spec``, on any
    other ``"(sampled)"``. An analytic row whose FR has no system pdf in
    ``spec`` raises ValueError.
    """
    rows = []
    for fr, res in zip(report.frs, report.per_fr):
        lo, hi = range_bounds(fr.design_range)
        if report.method == "analytic" and fr.id not in spec.system_pdfs:
            raise ValueError(f"FR {fr.id!r} has no system pdf to label its analytic row")
        rows.append({
            "fr": fr.id,
            "probability": res.probability,
            "bits": res.bits,
            "std_error": res.std_error,
            "design_range": {"lower": lo, "upper": hi},
            "system_pdf": (spec.system_pdfs[fr.id].describe()
                           if report.method == "analytic" else "(sampled)"),
        })
    doc = {
        "method": report.method,
        "order": [fr.id for fr in report.frs] if report.method == "chain" else None,
        "per_fr": rows,
        "system_probability": report.system_probability,
        "system_bits": report.system_bits,
        "mc": None,
    }
    if report.mc is not None:
        doc["mc"] = {
            "seed": report.mc.seed,
            "n_samples": report.mc.n_samples,
            "std_error": report.mc.std_error,
        }
    return doc


def render_text(doc: dict) -> str:
    """Aligned, human-oriented view of a report document."""
    lines: list[str] = []
    spec = doc.get("spec")
    if spec:
        lines.append(f"FRs: {', '.join(spec['frs'])}")
        lines.append(f"DPs: {', '.join(spec['dps'])}")
    cls = doc.get("classification")
    if cls:
        lines.append(f"classification: {cls['class']}")
        if cls.get("sequence"):
            steps = " -> ".join(f"{fr} (via {dp})" for fr, dp in cls["sequence"])
            lines.append(f"  adjustment sequence: {steps}")
        if cls.get("blocks"):
            for i, block in enumerate(cls["blocks"]):
                members = ", ".join(f"{fr}/{dp}" for fr, dp in block)
                lines.append(f"  block {i + 1}: {members}")
        if cls.get("reason"):
            lines.append(f"  reason: {cls['reason'].replace('_', ' ')}")
    elif "classification" in doc:
        lines.append("classification: (no design matrix)")
    info = doc.get("info")
    if info:
        lines.append(f"method: {info['method']}")
        if info.get("order"):
            lines.append(f"  chain order: {' -> '.join(info['order'])}")
        width = max([len("system")] + [len(row["fr"]) for row in info["per_fr"]]) + 2
        lines.append(
            f"{'FR':<{width}}{'probability':>14}{'bits':>12}{'std_error':>12}  design range")
        for row in info["per_fr"]:
            rng = row["design_range"]
            lines.append(
                f"{row['fr']:<{width}}"
                f"{row['probability']:>14.6g}"
                f"{row['bits']:>12.6g}"
                f"{row['std_error']:>12.6g}"
                f"  [{rng['lower']:.6g}, {rng['upper']:.6g}]"
                f"  {row['system_pdf']}")
        lines.append(
            f"{'system':<{width}}"
            f"{info['system_probability']:>14.6g}"
            f"{info['system_bits']:>12.6g}")
        if info.get("mc"):
            mc = info["mc"]
            lines.append(
                f"monte carlo: seed {mc['seed']}, {mc['n_samples']} samples, "
                f"system std_error {mc['std_error']:.6g}")
    if doc.get("csv"):
        lines.append(f"samples written to {doc['csv']}")
    if "issues" in doc:
        if doc["issues"]:
            lines.append("issues:")
            lines.extend(f"  - {issue}" for issue in doc["issues"])
        else:
            lines.append("spec is valid")
    for warning in doc.get("warnings", ()):
        lines.append(f"warning: {warning}")
    return "\n".join(lines) + "\n"
