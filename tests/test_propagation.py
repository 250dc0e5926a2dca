"""Uncertainty propagation through mapping models, sample tables, and
finite-difference sensitivity estimation."""

from __future__ import annotations

import collections
import csv
import dataclasses
import io
import math
import string
import tempfile
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from axdesign import (
    Coupled,
    DesignRange,
    Empirical,
    LinearModel,
    McConfig,
    Normal,
    Pdf,
    RngState,
    SampleSet,
    ScenarioModel,
    TankConfig,
    Triangular,
    Uncoupled,
    Uniform,
    classify,
    estimate_design_matrix,
    simulate_tank,
    system_information_from_samples,
    tank_response,
)
from axdesign import propagation
from axdesign.distributions import draw_from
from axdesign.errors import NonFiniteSamples
from axdesign.info import _tables, _tally
from axdesign.model import FunctionalRequirement, range_bounds
from axdesign.propagation import _CHUNK_ROWS

from conftest import load_spec, make_frs


# ---------------------------------------------------------------------------
# SampleSet container


def test_sample_set_validates_shape_and_names():
    values = np.zeros((3, 2))
    ss = SampleSet(columns=("a", "b"), values=values)
    assert ss.n == 3
    with pytest.raises(ValueError):
        SampleSet(columns=("a",), values=values)  # name/width mismatch
    with pytest.raises(ValueError):
        SampleSet(columns=("a", "a"), values=values)  # duplicate names
    with pytest.raises(ValueError):
        SampleSet(columns=("a", "b"), values=np.array([[1.0, math.nan]]))


def test_sample_set_values_are_read_only():
    ss = SampleSet(columns=("a",), values=np.ones((2, 1)))
    with pytest.raises(ValueError):
        ss.values[0, 0] = 5.0


def test_sample_set_keeps_a_read_only_view_of_a_float64_array():
    given = np.ones((2, 1))
    ss = SampleSet(columns=("a",), values=given)
    assert np.shares_memory(ss.values, given)
    assert not ss.values.flags.writeable
    assert given.flags.writeable
    given[0, 0] = 5.0  # the caller's writes show through
    assert ss.values[0, 0] == 5.0


@pytest.mark.parametrize("call,error", [
    (lambda: estimate_design_matrix(LinearModel([[1.0]], [Uniform(0.0, 1.0)]),
                                    [10**400], 1e-3), ValueError),
    (lambda: SampleSet(("a",), [[10**400]]), ValueError),
    (lambda: tank_response(TankConfig(), [10**400, 65, 120]), ValueError),
    (lambda: system_information_from_samples([[-10**400]], make_frs((0.0, 1.0))),
     NonFiniteSamples),
], ids=["estimate_design_matrix", "SampleSet", "tank_response",
        "system_information_from_samples"])
def test_array_inputs_beyond_float64_fail_their_finite_check(call, error):
    with pytest.raises(error, match="finite"):
        call()


def test_sample_set_csv_round_trip(tmp_path):
    values = np.array([[1.0, 0.1], [2.5, -0.25], [1.0 / 3.0, 1e-17]])
    ss = SampleSet(columns=("level", "temp"), values=values)
    path = tmp_path / "samples.csv"
    ss.to_csv(path)
    text = path.read_text()
    lines = text.strip().split("\n")
    assert lines[0] == "level,temp"
    assert len(lines) == 4
    parsed = np.array([[float(tok) for tok in line.split(",")]
                       for line in lines[1:]])
    # repr() of a float round-trips exactly.
    assert np.array_equal(parsed, values)


@pytest.mark.parametrize("rows", [1, propagation._CSV_ROWS])
def test_sample_set_csv_text_is_pinned(tmp_path, rows):
    # Each value is written as repr of its float: the shortest text that
    # round-trips, with the sign of -0.0, subnormals and large exponents.
    # One row per block crosses a block boundary.
    values = np.array([[1.0 / 3.0, 1e-17, -0.0], [7.0, 5e-324, 1e300]])
    path = tmp_path / "samples.csv"
    with mock.patch.object(propagation, "_CSV_ROWS", rows):
        SampleSet(columns=("a", "b", "c"), values=values).to_csv(path)
    assert path.read_bytes() == b"a,b,c\n0.3333333333333333,1e-17,-0.0\n7.0,5e-324,1e+300\n"


csv_values = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                       st.sampled_from([-0.0, 5e-324, 1e308, -1e308]))
csv_names = st.one_of(st.sampled_from(["lev,el", 'say "hi"', "two\nlines"]),
                      st.text(string.printable, min_size=1, max_size=6))


@settings(max_examples=200, deadline=None)
@given(data=st.data(), ncols=st.integers(1, 4), rows=st.sampled_from([1, 2, 3]))
def test_sample_set_csv_equals_csv_writer(data, ncols, rows):
    # The reference writes the header and then every value's repr through
    # csv.writer, so names with a comma, a quote or a newline are quoted;
    # the blocks of _CSV_ROWS rows, here 1 to 3, must not show.
    names = data.draw(st.lists(csv_names, min_size=ncols, max_size=ncols, unique=True))
    table = data.draw(st.lists(st.lists(csv_values, min_size=ncols, max_size=ncols),
                               max_size=8))
    values = np.array(table, dtype=np.float64).reshape(-1, ncols)
    expected = io.StringIO()
    writer = csv.writer(expected, lineterminator="\n")
    writer.writerow(names)
    writer.writerows(map(repr, row) for row in values.tolist())
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(propagation, "_CSV_ROWS", rows):
        path = Path(tmp) / "samples.csv"
        SampleSet(columns=tuple(names), values=values).to_csv(path)
        assert path.read_bytes() == expected.getvalue().encode()


# ---------------------------------------------------------------------------
# LinearModel


def _streams(seed):
    """``stream`` for ``sample_frs``: substream k of ``seed``, opened at
    value 0."""
    return lambda k: RngState(seed).substream(k).generator()


def test_linear_model_point_masses_propagate_exactly():
    model = LinearModel(np.eye(3), [Empirical([7.0]), Empirical([65.0]),
                                    Empirical([120.0])])
    draws = model.sample_frs(_streams(1), 5)
    assert np.array_equal(draws, np.tile([7.0, 65.0, 120.0], (5, 1)))


def test_linear_model_scales_and_mixes_inputs():
    model = LinearModel([[2.0]], [Uniform(0.0, 1.0)])
    n = 20_000
    draws = model.sample_frs(_streams(4), n)
    assert draws.shape == (n, 1)
    mean = float(draws.mean())
    # FR = 2*U(0,1) has mean 1 and sd 2/sqrt(12).
    assert abs(mean - 1.0) < 3.0 * (2.0 / math.sqrt(12.0)) / math.sqrt(n)


def test_linear_model_adds_output_noise():
    model = LinearModel([[0.0]], [Empirical([1.0])],
                        noise_pdfs=[Normal(5.0, 0.25)])
    draws = model.sample_frs(_streams(8), 50_000)
    assert abs(float(draws.mean()) - 5.0) < 3.0 * 0.25 / math.sqrt(50_000)
    assert abs(float(draws.std(ddof=1)) - 0.25) < 0.01


def test_linear_model_noise_entries_may_be_missing():
    model = LinearModel(np.eye(2), [Empirical([1.0]), Empirical([2.0])],
                        noise_pdfs=[None, Normal(0.0, 1.0)])
    draws = model.sample_frs(_streams(0), 100)
    assert np.all(draws[:, 0] == 1.0)  # no noise on the first output
    assert np.std(draws[:, 1]) > 0.0


def test_linear_model_validates_dimensions():
    with pytest.raises(ValueError):
        LinearModel(np.eye(2), [Uniform(0.0, 1.0)])  # one pdf, two DPs
    with pytest.raises(ValueError):
        LinearModel(np.eye(2), [Uniform(0.0, 1.0), Uniform(0.0, 1.0)],
                    noise_pdfs=[Normal(0.0, 1.0)])  # one noise, two FRs


def test_linear_model_keeps_its_own_matrix():
    entries = np.array([[2.0, 0.0], [1.0, 1.0]])
    model = LinearModel(entries, [Uniform(0.0, 1.0), Normal(0.0, 1.0)])
    before = model.sample_frs(_streams(3), 50)
    entries[:] = 0.0
    assert np.array_equal(model.sample_frs(_streams(3), 50), before)


def test_linear_model_dp_streams_are_independent():
    model = LinearModel(np.eye(2), [Uniform(0.0, 1.0), Uniform(0.0, 1.0)])
    # On the identity matrix the FR table is the DP table.
    dps = model.sample_frs(_streams(21), 4000)
    corr = float(np.corrcoef(dps[:, 0], dps[:, 1])[0, 1])
    assert abs(corr) < 0.05
    assert not np.array_equal(dps[:, 0], dps[:, 1])


def test_same_seed_same_table():
    model = LinearModel([[1.0, 0.5]], [Uniform(0.0, 1.0), Normal(0.0, 1.0)])
    a = model.sample_frs(_streams(33), 256)
    b = model.sample_frs(_streams(33), 256)
    assert a.shape == (256, 1)
    assert np.array_equal(a, b)
    c = model.sample_frs(_streams(34), 256)
    assert not np.array_equal(a, c)


# ---------------------------------------------------------------------------
# Chunked sampling and the streaming tally


C = _CHUNK_ROWS
finite = st.floats(-10.0, 10.0)
width = st.floats(1e-3, 100.0)
pdfs = st.one_of(
    st.builds(lambda lo, w: Uniform(lo, lo + w), finite, width),
    st.builds(Normal, finite, st.floats(1e-3, 20.0)),
    st.builds(lambda lo, f, w: Triangular(lo, lo + f * w, lo + w),
              finite, st.floats(0.0, 1.0), width),
    st.builds(lambda xs: Empirical(tuple(xs)), st.lists(finite, min_size=1, max_size=8)),
)


def _one_call_reference(matrix, dp_pdfs, noise_pdfs, seed, n):
    """The whole table from fresh per-substream generators, one call each."""
    def column(pdf, k):
        if pdf is None:
            return np.zeros(n)
        if not isinstance(pdf, Pdf):  # a fixed DP
            return np.full(n, float(pdf))
        return draw_from(pdf, RngState(seed).substream(k).generator(), n)

    dps = np.column_stack([column(pdf, j) for j, pdf in enumerate(dp_pdfs)])
    frs = dps @ matrix.T
    if noise_pdfs is not None:
        frs = frs + np.column_stack(
            [column(pdf, len(dp_pdfs) + i) for i, pdf in enumerate(noise_pdfs)])
    return frs


@settings(max_examples=200, deadline=None)
@given(
    n=st.sampled_from([1, C - 1, C, C + 1, 2 * C + 3]),
    seed=st.integers(0, 2**32),
    shape=st.tuples(st.integers(1, 4), st.integers(1, 4)),
    data=st.data(),
)
def test_chunked_tables_and_tally_match_the_one_call_reference(n, seed, shape, data):
    n_frs, n_dps = shape
    matrix = np.array(data.draw(st.lists(
        st.lists(finite, min_size=n_dps, max_size=n_dps),
        min_size=n_frs, max_size=n_frs)))
    dp_pdfs = data.draw(st.lists(st.one_of(pdfs, finite), min_size=n_dps, max_size=n_dps))
    noise_pdfs = data.draw(st.one_of(st.none(), st.lists(
        st.one_of(st.none(), pdfs), min_size=n_frs, max_size=n_frs)))
    model = LinearModel(matrix, dp_pdfs, noise_pdfs)
    ref = _one_call_reference(matrix, dp_pdfs, noise_pdfs, seed, n)

    chunks = list(_tables(model, McConfig(seed=seed, n_samples=n)))
    assert [len(c) for c in chunks] == [min(C, n - s) for s in range(0, n, C)]
    assert np.array_equal(np.concatenate(chunks), ref)
    assert np.array_equal(model.sample_frs(_streams(seed), n), ref)

    # Ranges between two sample quantiles of each column, and any order.
    # The expected counts read the bounds back, as the tally does.
    quantiles = data.draw(st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
                                   min_size=n_frs, max_size=n_frs))
    frs = []
    for j, q in enumerate(quantiles):
        lo, hi = np.quantile(ref[:, j], sorted(q))
        frs.append(FunctionalRequirement(f"x{j}", DesignRange(lo, 0.0, hi - lo)))
    order = data.draw(st.permutations(range(n_frs)))
    inside = np.column_stack([(ref[:, j] >= lo) & (ref[:, j] <= hi) for j, (lo, hi)
                              in enumerate(range_bounds(fr.design_range) for fr in frs)])
    rows, hits, links = _tally(chunks, frs, order)
    assert rows == n
    assert hits == inside.sum(axis=0).tolist()
    assert links == [int(inside[:, order[:k + 1]].all(axis=1).sum())
                     for k in range(n_frs)]

    # Contiguous parts of the chunks, each drawn and tallied on its own
    # stream, sum to the one-call counts.
    cuts = sorted(data.draw(st.lists(st.integers(1, len(chunks) - 1), unique=True))
                  if len(chunks) > 1 else [])
    parts = [_tally(_tables(model, McConfig(seed=seed, n_samples=n), range(a, b)),
                    frs, order)
             for a, b in zip([0] + cuts, cuts + [len(chunks)])]
    assert sum(part[0] for part in parts) == n
    assert [sum(col) for col in zip(*(part[1] for part in parts))] == hits
    assert [sum(col) for col in zip(*(part[2] for part in parts))] == links


@pytest.mark.parametrize("chunks", [None, range(0, 2), range(2, 3), range(3, 6)])
def test_each_part_opens_each_stream_once_at_its_first_row(chunks):
    # Two DPs and noise [None, pdf] read substreams 0, 1 and 3, never 2.
    model = LinearModel(np.eye(2), [Uniform(0.0, 1.0), Normal(0.0, 1.0)],
                        noise_pdfs=[None, Normal(0.0, 0.1)])
    n = 5 * C + 7
    opened = []
    real_generator = RngState.generator

    def generator(self, start=0):
        opened.append((self.stream, start))
        return real_generator(self, start)

    with mock.patch.object(RngState, "generator", generator):
        table = np.concatenate(list(_tables(model, McConfig(seed=9, n_samples=n), chunks)))
    first = chunks.start * C if chunks else 0
    assert sorted(opened) == [((0,), first), ((1,), first), ((3,), first)]
    ref = _one_call_reference(model.matrix, model.dp_pdfs, model.noise_pdfs, 9, n)
    assert np.array_equal(table, ref[first:first + len(table)])


@pytest.mark.parametrize("n_frs", [1, 3])
@pytest.mark.parametrize("n", [1, C, C + 1])
def test_a_fixed_dp_gives_the_table_of_a_one_observation_pdf(n_frs, n):
    # The number fills its column with the value that a one-observation
    # empirical pdf draws in every row. C + 1 rows end in a lone row at C.
    matrix = np.random.default_rng(n_frs).normal(size=(n_frs, 2))
    noise = [None] * (n_frs - 1) + [Normal(0.0, 0.1)]
    mc = McConfig(seed=5, n_samples=n)
    fixed = LinearModel(matrix, [Uniform(-1.0, 2.0), 7.0], noise)
    atom = LinearModel(matrix, [Uniform(-1.0, 2.0), Empirical((7.0,))], noise)
    table = np.concatenate(list(_tables(fixed, mc)))
    assert table.shape == (n, n_frs)
    assert np.array_equal(table, np.concatenate(list(_tables(atom, mc))))


def test_a_fixed_dp_never_asks_for_its_stream():
    # DPs 0-2 and noise rows 0-2 would read substreams 0-2 and 3-5.
    model = LinearModel(np.eye(3), [Uniform(0.0, 1.0), 7.0, Normal(0.0, 1.0)],
                        noise_pdfs=[None, None, Normal(0.0, 0.1)])
    asked = collections.Counter()
    streams = _streams(2)

    def stream(k):
        asked[k] += 1
        return streams(k)

    table = model.sample_frs(stream, 100)
    assert asked == {0: 1, 2: 1, 5: 1}
    assert np.all(table[:, 1] == 7.0)


@pytest.mark.parametrize("n_frs", [1, 3])
@pytest.mark.parametrize("n", [1, C + 1, 2 * C + 1])
def test_lone_last_row_is_rounded_as_in_the_one_call_table(n_frs, n):
    # A one-row product goes through a different BLAS kernel from a larger
    # one; the chunked table must still round every row as the whole does.
    rng = np.random.default_rng(n_frs)
    matrix = rng.normal(size=(n_frs, 5)) * 10.0 ** rng.uniform(-3, 3, size=(n_frs, 5))
    dp_pdfs = [Normal(0.0, 10.0 ** e) for e in rng.uniform(-3, 3, size=5)]
    model = LinearModel(matrix, dp_pdfs)
    chunks = list(_tables(model, McConfig(seed=12, n_samples=n)))
    ref = _one_call_reference(matrix, dp_pdfs, None, 12, n)
    assert np.array_equal(np.concatenate(chunks), ref)


# ---------------------------------------------------------------------------
# Finite-difference sensitivity
# (SimpleNamespace stands in for a model that has only ``evaluate``.)


def test_estimated_matrix_is_exact_for_linear_maps():
    true = np.array([[2.0, -1.0, 0.0], [0.5, 3.0, 1.5]])
    model = LinearModel(true, [Uniform(0.0, 1.0)] * 3)
    for step in (1e-1, 1e-3, 1e-6):
        est = estimate_design_matrix(model, [1.0, 2.0, 3.0], step=step)
        assert isinstance(est, np.ndarray) and est.dtype == np.float64
        # Central differences are exact on linear functions at any step.
        assert np.allclose(est, true, atol=1e-8)


def test_estimated_slope_of_square_at_three_is_six():
    model = SimpleNamespace(evaluate=lambda d: np.array([d[0] ** 2]))
    est = estimate_design_matrix(model, [3.0], step=1e-4)
    assert est[0, 0] == pytest.approx(6.0, abs=1e-6)


def test_each_column_divides_by_the_step_taken_at_its_nominal():
    # At 1e17 the float64 spacing is 16: a step of 10 moves the DP by 16
    # each way, and a step of 1 does not move it at all.
    model = LinearModel([[2.0, 1.0], [0.0, 3.0]], [Uniform(0.0, 1.0)] * 2)
    est = estimate_design_matrix(model, [1e17, 1.0], step=10.0)
    assert est[:, 0].tolist() == [2.0, 0.0]
    with pytest.raises(ValueError, match="^step 1.0 is lost in the rounding of DP 0's nominal$"):
        estimate_design_matrix(model, [1e17, 1.0], step=1.0)


def test_estimation_validates_step_and_outputs():
    model = LinearModel([[1.0]], [Uniform(0.0, 1.0)])
    with pytest.raises(ValueError):
        estimate_design_matrix(model, [1.0], step=0.0)
    bad = SimpleNamespace(evaluate=lambda d: np.array([math.nan]))
    with pytest.raises(ValueError, match="DP 0"):
        estimate_design_matrix(bad, [1.0], step=1e-3)


def test_probing_a_simulator_recovers_its_coupling_structure():
    # With no cross-channel gains the startup map moves each output with
    # exactly one input; adding both gains makes the pattern circulatory.
    plain = ScenarioModel(TankConfig())
    est = estimate_design_matrix(plain, [7.0, 65.0, 120.0], step=1e-3)
    assert isinstance(classify(est, epsilon=1e-9), Uncoupled)

    tangled = ScenarioModel(TankConfig(mixer_to_temp=0.1, heater_to_level=0.05))
    est2 = estimate_design_matrix(tangled, [7.0, 65.0, 120.0], step=1e-3)
    assert isinstance(classify(est2, epsilon=1e-9), Coupled)


def test_a_scenario_is_sampled_as_simulate_tank_runs_it():
    # The one sampling call: noise channel c reads stream(c), and the info
    # routes read the whole run as one chunk at row 0.
    cfg = load_spec("tank_turbulent.json").scenario
    seed, n = 17, 300
    table = simulate_tank(dataclasses.replace(cfg, cycles=n), RngState(seed)).values
    model = ScenarioModel(cfg)
    assert np.array_equal(model.sample_frs(_streams(seed), n, 0), table)
    chunks = list(_tables(model, McConfig(seed=seed, n_samples=n)))
    assert len(chunks) == 1 and np.array_equal(chunks[0], table)
