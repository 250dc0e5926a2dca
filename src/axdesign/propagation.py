"""Forward uncertainty propagation from design parameters to requirements.

Two model flavours, the ones the Monte Carlo routes of :mod:`axdesign.info`
sample, share ``sample_frs(stream, n, start) -> (n, n_frs) ndarray`` and
one point map (``evaluate(dp_values) -> FR values``):

* :class:`LinearModel` — FR = A @ DP + noise, with a pdf or a fixed value
  per DP and an optional additive noise pdf per FR row.
* :class:`ScenarioModel` — the batch-process tank simulator
  (:mod:`axdesign.tank`); each sample row is one simulated cycle.

:func:`simulate_tank` runs the simulator and wraps the cycles in a
:class:`SampleSet` (named columns, rectangular, finite, CSV-exportable).
:func:`estimate_design_matrix` recovers the local influence matrix of any
model exposing ``evaluate`` by central finite differences — exact for
linear maps at any step size.

Determinism: every DP pdf, noise row, and tank noise channel draws
from its own derived substream of the caller's ``RngState``, so results
are reproducible for a given seed and independent across columns.

Rows in chunks: both models are sampled by one call form,
``sample_frs(stream, rows, start)``, where ``stream(k)`` is substream k's
generator standing at value ``start``, and ``chunk_rows`` is the rows the
Monte Carlo routes sample at a time. ``LinearModel`` reads ``rows``
values from each substream it reads, and never opens those of a fixed DP
or a noiseless row. Each draw takes one value, so row r of DP column j
is value r of substream j: the call returns rows ``start …
start+rows-1`` of the one-call table, bit for bit, and leaves every
stream at the next chunk's first row. A caller opens each stream once,
with ``RngState.generator(start)``, and reads consecutive chunks from it,
so sampling memory is set by the chunk, not by the sample count. The info
routes score the parts of a multi-chunk run on several threads, each part
with generators of its own, so ``sample_frs`` is called concurrently;
``LinearModel`` holds no per-call state.
:class:`ScenarioModel` rows are consecutive cycles of one Markov run, so
its ``chunk_rows`` is None: the whole run is one chunk, and ``start`` is 0.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .coupling import _float64, frozen_matrix
from .distributions import Pdf, RngState, draw_from, float64_array, is_real
from .tank import TankConfig, simulate, tank_response

__all__ = [
    "SampleSet",
    "LinearModel",
    "ScenarioModel",
    "estimate_design_matrix",
    "simulate_tank",
    "TANK_COLUMNS",
]

TANK_COLUMNS = ("level", "temperature", "mix_duration")
_CSV_ROWS = 4096  # table rows turned into Python floats per CSV block


@dataclass(frozen=True)
class SampleSet:
    """Rectangular table of per-trial FR values with named columns. ``values``
    is a read-only view of a float64 array given, which stays writable: later
    writes to it show through."""

    columns: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self):
        cols = tuple(str(c) for c in self.columns)
        if len(set(cols)) != len(cols) or not cols:
            raise ValueError("column names must be non-empty and unique")
        arr = float64_array(self.values).view()
        if arr.ndim != 2 or arr.shape[1] != len(cols):
            raise ValueError(
                f"values must be 2-D with {len(cols)} columns, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("sample values must all be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "columns", cols)
        object.__setattr__(self, "values", arr)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    def to_csv(self, path) -> None:
        """Write to ``path`` as UTF-8 CSV, under a header of the column names
        that ``csv.writer`` quotes as needed. A value is its float's ``repr``,
        which never needs quoting: one format per row, one write per block."""
        line = ",".join(["{!r}"] * len(self.columns)) + "\n"
        with open(path, "w", encoding="utf-8", newline="") as handle:
            csv.writer(handle, lineterminator="\n").writerow(self.columns)
            for i in range(0, self.n, _CSV_ROWS):
                block = self.values[i:i + _CSV_ROWS].tolist()
                handle.write("".join(line.format(*row) for row in block))


# Rows per chunk: a (rows, FRs) chunk and its temporaries stay in L2.
_CHUNK_ROWS = 8192


def _product(matrix: np.ndarray, dps: np.ndarray, start: int) -> np.ndarray:
    """``matrix @ dps`` for the DP columns ``dps`` (n_dps, rows) at row
    ``start``, rounded as in the one-call table ``dps.T @ matrix.T``.
    Returns (n_frs, rows).

    BLAS gives each entry the same multiply-add chain in both layouts of a
    matrix-matrix product. A one-FR table is a matrix-vector product of the
    row-major DP table, so it is computed on that layout. A lone row after
    ``start`` 0 belongs to a larger product, so it is padded to two rows.
    """
    if dps.shape[1] == 1 and start:
        return _product(matrix, np.pad(dps, ((0, 0), (0, 1))), 0)[:, :1]
    if matrix.shape[0] == 1:
        return (np.ascontiguousarray(dps.T) @ matrix.T).T
    return matrix @ dps


class LinearModel:
    """FR = matrix @ DP + noise with independent per-DP pdfs. ``matrix``
    is kept as a read-only float64 copy.

    A ``dp_pdfs`` entry may be a finite number (see :func:`is_real`)
    instead of a pdf: that DP is held at the value, and its column is
    filled with it. ``noise_pdfs``, when given, adds one independent draw
    per FR row; entries may be ``None`` for noiseless rows.
    """

    chunk_rows = _CHUNK_ROWS

    def __init__(self, matrix, dp_pdfs: Sequence[Pdf | float],
                 noise_pdfs: Sequence[Pdf | None] | None = None):
        self.matrix = frozen_matrix(matrix)
        n_frs, n_dps = self.matrix.shape
        self.dp_pdfs = tuple(dp_pdfs)
        if len(self.dp_pdfs) != n_dps:
            raise ValueError(f"{n_dps} DP columns but {len(self.dp_pdfs)} DP pdfs")
        for j, pdf in enumerate(self.dp_pdfs):
            if not (isinstance(pdf, Pdf) or is_real(pdf)):
                raise ValueError(f"dp_pdfs[{j}] is neither a Pdf nor a finite number")
        self.noise_pdfs = None
        if noise_pdfs is not None:
            self.noise_pdfs = tuple(noise_pdfs)
            if len(self.noise_pdfs) != n_frs:
                raise ValueError(f"{n_frs} FR rows but {len(self.noise_pdfs)} noise pdfs")
            for i, pdf in enumerate(self.noise_pdfs):
                if pdf is not None and not isinstance(pdf, Pdf):
                    raise ValueError(f"noise_pdfs[{i}] is neither a Pdf nor None")

    def evaluate(self, dp_values) -> np.ndarray:
        dps = np.asarray(dp_values, dtype=np.float64)
        return dps @ self.matrix.T

    def sample_frs(self, stream: Callable[[int], np.random.Generator], n: int,
                   start: int = 0) -> np.ndarray:
        """Rows ``start … start+n-1`` of the FR sample table, shape (n, n_frs).

        ``stream(k)`` is substream k's generator, standing at value
        ``start``: DP column j is read from ``stream(j)`` and noise row i
        from ``stream(n_dps + i)``, ``n`` values each. A fixed DP and a
        noiseless row read none, and their ``stream`` is not called.
        ``start`` places a lone row in the one-call table's
        rounding (see :func:`_product`).
        Values that overflow float64 come back as inf or nan, without a
        warning, for the caller to reject.
        """
        n_dps = self.matrix.shape[1]
        dps = np.empty((n_dps, n))
        with np.errstate(over="ignore", invalid="ignore"):
            for j, pdf in enumerate(self.dp_pdfs):
                dps[j] = draw_from(pdf, stream(j), n) if isinstance(pdf, Pdf) else pdf
            frs = _product(self.matrix, dps, start)
            for i, pdf in enumerate(self.noise_pdfs or ()):
                if pdf is not None:
                    frs[i] += draw_from(pdf, stream(n_dps + i), n)
        return frs.T


class ScenarioModel:
    """Tank-scenario sampler: each FR sample row is one simulated cycle,
    and ``evaluate`` is the noise-free two-cycle setpoint response map
    (suitable for finite-difference influence estimation)."""

    # Each cycle starts where the last one left off: the run is one chunk,
    # at start 0. Not MAX_CYCLES, so a longer run fails at once in TankConfig.
    chunk_rows = None

    def __init__(self, config: TankConfig):
        if not isinstance(config, TankConfig):
            raise ValueError("config must be a TankConfig")
        self.config = config

    def evaluate(self, dp_values) -> np.ndarray:
        return tank_response(self.config, dp_values)

    def sample_frs(self, stream, n: int, start: int = 0) -> np.ndarray:
        return simulate(replace(self.config, cycles=n), stream)


def estimate_design_matrix(model, dp_nominals, step: float) -> np.ndarray:
    """Influence matrix by central finite differences around ``dp_nominals``,
    as a float64 array with one row per FR and one column per DP.

    Entry (i, j) is ``(FR_i(plus) - FR_i(minus)) / (plus[j] - minus[j])``
    using the model's ``evaluate``, where ``plus`` and ``minus`` move DP j
    by ``step`` either way: the divisor is the step taken after rounding.
    Exact for linear maps at any positive step, up to the rounding of the
    model's outputs. A step lost in that rounding, and non-finite model
    output, raise ValueError naming the DP.
    """
    x0 = float64_array(dp_nominals)
    if x0.ndim != 1 or x0.size == 0 or not np.all(np.isfinite(x0)):
        raise ValueError("dp_nominals must be a non-empty finite 1-D vector")
    if not (is_real(step) and step > 0):
        raise ValueError("step must be a positive finite number")
    columns = []
    for j in range(x0.size):
        plus, minus = x0.copy(), x0.copy()
        plus[j], minus[j] = x0[j] + step, x0[j] - step
        if plus[j] == minus[j]:
            raise ValueError(f"step {step!r} is lost in the rounding of DP {j}'s nominal")
        f_plus = np.asarray(model.evaluate(plus), dtype=np.float64)
        f_minus = np.asarray(model.evaluate(minus), dtype=np.float64)
        col = (f_plus - f_minus) / (plus[j] - minus[j])
        if not np.all(np.isfinite(col)):
            raise ValueError(f"non-finite model output while probing DP {j}")
        columns.append(col)
    return _float64(np.column_stack(columns))  # each column is finite


def simulate_tank(config: TankConfig, rng: RngState,
                  columns: Sequence[str] | None = None) -> SampleSet:
    """The ``config.cycles`` cycles of the tank simulator, noise channel c
    reading substream c of ``rng``, as a :class:`SampleSet` of achieved FR
    values (fill level, temperature at mix start, mix duration)."""
    values = simulate(config, lambda c: rng.substream(c).generator())
    return SampleSet(columns=tuple(columns) if columns else TANK_COLUMNS,
                     values=values)
