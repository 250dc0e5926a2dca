"""Design specification documents.

A design spec declares functional requirements (each with an acceptable
range), design parameters, and optionally an influence matrix, per-FR
probability models, per-FR additive noise models, a binarization threshold
``epsilon``, and a batch-tank scenario block.

The JSON document format is pinned here::

    {
      "frs":  [{"id", "description?", "nominal", "tol_minus", "tol_plus", "unit?"}],
      "dps":  [{"id", "description?", "nominal", "uncertainty?"}],
      "matrix": [[...], ...],            # optional, |frs| rows x |dps| columns
      "system_pdfs": {"<fr id>": pdf},   # optional
      "noise_pdfs":  {"<fr id>": pdf},   # optional
      "epsilon": 0.0,                    # optional, >= 0
      "scenario": {...}                  # optional tank block; needs exactly 3 FRs
    }

    pdf: {"kind": "uniform",    "lo", "hi"}
       | {"kind": "normal",     "mu", "sigma"}
       | {"kind": "triangular", "lo", "mode", "hi"}
       | {"kind": "empirical",  "samples": [...]}

Unknown fields are rejected everywhere. ``parse_spec`` reports JSON syntax
errors with their position and type violations with the offending field
path. The structural rules (at least one FR, unique ids, the matrix shape,
pdf maps keyed by known FRs, the scenario's 3 FRs) are invariants of
:class:`DesignSpec`, so they hold however a spec is built. Likewise the
scenario block's value rules (the cycle count, the sensor-noise channels,
the levels and rates) live in :class:`~axdesign.tank.TankConfig`: the codec
checks only the block's JSON fields and types.
``validate_spec`` reports only the semantic issues a well-formed spec may
still have, as data rather than raising.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .coupling import checked_epsilon, frozen_matrix
from .distributions import Empirical, Normal, Pdf, Triangular, Uniform, is_real
from .errors import SpecFormatError
from .tank import TankConfig

__all__ = [
    "DesignRange",
    "FunctionalRequirement",
    "DesignParameter",
    "DesignSpec",
    "range_bounds",
    "parse_spec",
    "validate_spec",
    "pdf_from_obj",
]


@dataclass(frozen=True)
class DesignRange:
    """Acceptable band for an FR: [nominal - tol_minus, nominal + tol_plus].

    Tolerances may be asymmetric. Negative or non-finite values are rejected
    outright; a zero-width range (both tolerances zero) is representable but
    flagged by :func:`validate_spec`.
    """

    nominal: float
    tol_minus: float
    tol_plus: float

    def __post_init__(self):
        for name in ("nominal", "tol_minus", "tol_plus"):
            if not is_real(getattr(self, name)):
                raise ValueError(f"design range {name} must be a finite number")
        if self.tol_minus < 0 or self.tol_plus < 0:
            raise ValueError("design range tolerances must be non-negative")


def range_bounds(dr: DesignRange) -> tuple[float, float]:
    """(lower, upper) bounds of the acceptable band."""
    return (dr.nominal - dr.tol_minus, dr.nominal + dr.tol_plus)


@dataclass(frozen=True)
class FunctionalRequirement:
    id: str
    design_range: DesignRange
    description: str = ""
    unit: str = ""

    def __post_init__(self):
        if not self.id:
            raise ValueError("FR id must be a non-empty string")


@dataclass(frozen=True)
class DesignParameter:
    id: str
    nominal: float
    description: str = ""
    uncertainty: Pdf | None = None

    def __post_init__(self):
        if not self.id:
            raise ValueError("DP id must be a non-empty string")
        if not is_real(self.nominal):
            raise ValueError(f"DP {self.id!r} nominal must be a finite number")


@dataclass(frozen=True, eq=False)
class DesignSpec:
    """A checked design spec. ``matrix``, when given, is kept as a read-only
    float64 array, one row per FR and one column per DP."""

    frs: tuple[FunctionalRequirement, ...]
    dps: tuple[DesignParameter, ...]
    matrix: np.ndarray | None = None
    system_pdfs: dict[str, Pdf] = field(default_factory=dict)
    noise_pdfs: dict[str, Pdf] = field(default_factory=dict)
    epsilon: float = 0.0
    scenario: TankConfig | None = None

    def __post_init__(self):
        if not self.frs:
            raise ValueError("a spec needs at least one FR")
        for kind, ids in (("FR", self.fr_ids()), ("DP", self.dp_ids())):
            seen = set()
            for item_id in ids:
                if item_id in seen:
                    raise ValueError(f"duplicate {kind} id {item_id!r}")
                seen.add(item_id)
        if self.matrix is not None:
            if len(self.matrix) != len(self.frs):
                raise ValueError(f"matrix must have one row per FR ({len(self.frs)})")
            if not self.dps:
                raise ValueError("a matrix needs at least one DP column")
            for i, row in enumerate(self.matrix):
                if not hasattr(row, "__len__") or len(row) != len(self.dps):
                    raise ValueError(
                        f"matrix row {i} must have one entry per DP ({len(self.dps)})")
            object.__setattr__(self, "matrix", frozen_matrix(self.matrix))
        fr_ids = set(self.fr_ids())
        for name, pdfs in (("system_pdfs", self.system_pdfs),
                           ("noise_pdfs", self.noise_pdfs)):
            for key in pdfs:
                if key not in fr_ids:
                    raise ValueError(f"{name} names unknown FR id {key!r}")
        object.__setattr__(self, "epsilon", checked_epsilon(self.epsilon))
        if self.scenario is not None and len(self.frs) != 3:
            raise ValueError(
                f"scenario requires exactly 3 FRs (fill level, temperature, "
                f"mix duration), got {len(self.frs)}")

    def fr_ids(self) -> tuple[str, ...]:
        return tuple(fr.id for fr in self.frs)

    def dp_ids(self) -> tuple[str, ...]:
        return tuple(dp.id for dp in self.dps)


# ---------------------------------------------------------------------------
# JSON codec


def _require_object(obj, where):
    if not isinstance(obj, dict):
        raise SpecFormatError("expected an object", where)


def _check_keys(obj, allowed, where):
    for key in obj:
        if key not in allowed:
            raise SpecFormatError(f"unknown field {key!r}", where)


def _fault(v) -> str:
    """What a JSON value that is not a finite number fails to be; bool is
    not among the types json.loads gives numbers."""
    return "must be a finite number" if type(v) in (int, float) else "must be a number"


def _number(obj, key, where, required=True, default=None):
    if key not in obj:
        if required:
            raise SpecFormatError(f"missing required field {key!r}", where)
        return default
    v = obj[key]
    if not is_real(v):
        raise SpecFormatError(f"field {key!r} {_fault(v)}", where)
    return float(v)


def _string(obj, key, where, required=True, default=""):
    if key not in obj:
        if required:
            raise SpecFormatError(f"missing required field {key!r}", where)
        return default
    v = obj[key]
    if not isinstance(v, str):
        raise SpecFormatError(f"field {key!r} must be a string", where)
    return v


def _made(where, make, *args, **kwargs):
    """``make(*args, **kwargs)``, its ValueError raised as a SpecFormatError
    at ``where``."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise SpecFormatError(str(exc), where) from exc


# Each pdf kind's type and its number fields, in the type's argument order.
_PDF_FIELDS = {
    "uniform": (Uniform, ("lo", "hi")),
    "normal": (Normal, ("mu", "sigma")),
    "triangular": (Triangular, ("lo", "mode", "hi")),
    "empirical": (Empirical, ("samples",)),
}


def pdf_from_obj(obj, where: str = "pdf") -> Pdf:
    """Decode one pdf object; raises SpecFormatError naming the field."""
    _require_object(obj, where)
    kind = _string(obj, "kind", where)
    if kind not in _PDF_FIELDS:
        raise SpecFormatError(f"unknown pdf kind {kind!r}", where)
    pdf_type, fields = _PDF_FIELDS[kind]
    _check_keys(obj, ("kind",) + fields, where)
    if pdf_type is not Empirical:
        return _made(where, pdf_type, *[_number(obj, key, where) for key in fields])
    samples = obj.get("samples")
    if not isinstance(samples, list) or not samples:
        raise SpecFormatError("field 'samples' must be a non-empty array", where)
    for i, v in enumerate(samples):
        if not is_real(v):
            raise SpecFormatError(f"samples[{i}] {_fault(v)}", where)
    return _made(where, Empirical, tuple(samples))


_SCENARIO_NUMBERS = ("level_low", "level_high", "temp_setpoint", "mix_duration", "timestep")
_GAIN_KEYS = ("mixer_to_temp", "heater_to_level", "mixer_to_level")


def _scenario_from_obj(obj, where="scenario") -> TankConfig:
    _require_object(obj, where)
    _check_keys(obj, _SCENARIO_NUMBERS + ("sensor_noise", "coupling_gains", "cycles"), where)
    kwargs = {"cycles": obj["cycles"]} if "cycles" in obj else {}
    for key in _SCENARIO_NUMBERS:
        v = _number(obj, key, f"{where}.{key}", required=False)
        if v is not None:
            kwargs[key] = v
    if "sensor_noise" in obj:
        block = obj["sensor_noise"]
        _require_object(block, f"{where}.sensor_noise")
        kwargs["sensor_noise"] = {
            ch: pdf_from_obj(block[ch], f"{where}.sensor_noise.{ch}") for ch in block
        }
    if "coupling_gains" in obj:
        block = obj["coupling_gains"]
        _require_object(block, f"{where}.coupling_gains")
        _check_keys(block, _GAIN_KEYS, f"{where}.coupling_gains")
        for key in block:
            kwargs[key] = _number(block, key, f"{where}.coupling_gains.{key}")
    return _made(where, TankConfig, **kwargs)


_FR_KEYS = ("id", "description", "nominal", "tol_minus", "tol_plus", "unit")
_DP_KEYS = ("id", "description", "nominal", "uncertainty")
_TOP_KEYS = ("frs", "dps", "matrix", "system_pdfs", "noise_pdfs", "epsilon", "scenario")


def _fr_from_obj(obj, where) -> FunctionalRequirement:
    _require_object(obj, where)
    _check_keys(obj, _FR_KEYS, where)
    fr_id = _string(obj, "id", where)
    dr = _made(where, DesignRange, _number(obj, "nominal", where),
               _number(obj, "tol_minus", where), _number(obj, "tol_plus", where))
    return _made(where, FunctionalRequirement, fr_id, dr,
                 description=_string(obj, "description", where, required=False),
                 unit=_string(obj, "unit", where, required=False))


def _dp_from_obj(obj, where) -> DesignParameter:
    _require_object(obj, where)
    _check_keys(obj, _DP_KEYS, where)
    dp_id = _string(obj, "id", where)
    unc = None
    if "uncertainty" in obj:
        unc = pdf_from_obj(obj["uncertainty"], f"{where}.uncertainty")
    return _made(where, DesignParameter, dp_id, _number(obj, "nominal", where),
                 description=_string(obj, "description", where, required=False),
                 uncertainty=unc)


def _pdf_map_from_obj(obj, where) -> dict[str, Pdf]:
    _require_object(obj, where)
    return {key: pdf_from_obj(val, f"{where}.{key}") for key, val in obj.items()}


def _matrix_from_obj(raw) -> list:
    """The matrix rows as they are, once every entry is a finite number;
    the first fault is reported with its entry's path."""
    if not isinstance(raw, list):
        raise SpecFormatError("matrix must be an array of rows", "matrix")
    for i, row in enumerate(raw):
        if not isinstance(row, list):
            raise SpecFormatError(f"row {i} must be an array", "matrix")
        for j, v in enumerate(row):
            if not is_real(v):
                raise SpecFormatError(f"entry [{i}][{j}] must be a finite number", "matrix")
    return raw


def parse_spec(text: str) -> DesignSpec:
    """Parse a JSON design-spec document.

    Raises :class:`SpecFormatError` with the error position for malformed
    JSON, at ``document`` for JSON that ``json.loads`` cannot build (arrays
    nested too deep for the recursion limit, an integer literal of more
    than 4300 digits), with the offending field path for type violations,
    and at ``document`` for a broken :class:`DesignSpec` invariant. Semantic
    problems that are representable (zero-width ranges, missing probability
    sources) are left to :func:`validate_spec`.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecFormatError(
            f"syntax error: {exc.msg}", f"line {exc.lineno} column {exc.colno}"
        ) from exc
    except (ValueError, RecursionError) as exc:
        # The digit limit's message ends in advice to call
        # sys.set_int_max_str_digits(), which a spec author cannot act on.
        reason = str(exc).partition("; use sys.set_int_max_str_digits()")[0]
        raise SpecFormatError(f"cannot decode JSON: {reason}", "document") from exc
    _require_object(doc, "document")
    _check_keys(doc, _TOP_KEYS, "document")

    for key in ("frs", "dps"):
        if key not in doc or not isinstance(doc[key], list):
            raise SpecFormatError(f"missing or non-array field {key!r}", "document")

    frs = tuple(_fr_from_obj(o, f"frs[{i}]") for i, o in enumerate(doc["frs"]))
    dps = tuple(_dp_from_obj(o, f"dps[{i}]") for i, o in enumerate(doc["dps"]))

    matrix = _matrix_from_obj(doc["matrix"]) if "matrix" in doc else None

    system_pdfs = _pdf_map_from_obj(doc["system_pdfs"], "system_pdfs") \
        if "system_pdfs" in doc else {}
    noise_pdfs = _pdf_map_from_obj(doc["noise_pdfs"], "noise_pdfs") \
        if "noise_pdfs" in doc else {}

    epsilon = _number(doc, "epsilon", "epsilon", required=False, default=0.0)
    scenario = _scenario_from_obj(doc["scenario"]) if "scenario" in doc else None

    return _made("document", DesignSpec, frs, dps, matrix, system_pdfs, noise_pdfs,
                 epsilon, scenario)


def validate_spec(spec: DesignSpec) -> list[str]:
    """Semantic validation; returns violations as strings (empty = valid).

    Pure: the spec is not modified and repeated calls agree.
    """
    issues = []
    for fr in spec.frs:
        dr = fr.design_range
        if dr.tol_minus == 0 and dr.tol_plus == 0:
            issues.append(f"FR {fr.id!r}: zero-width design range")
    for fr in spec.frs:
        if (fr.id not in spec.system_pdfs and spec.matrix is None
                and spec.scenario is None):
            issues.append(
                f"FR {fr.id!r} has no system range source "
                f"(no system pdf, design matrix, or scenario)")
    return issues
