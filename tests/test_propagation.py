"""Uncertainty propagation through mapping models, sample tables, and
finite-difference sensitivity estimation."""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np
import pytest

from axdesign import (
    Coupled,
    DesignMatrix,
    LinearModel,
    Normal,
    RngState,
    SampleSet,
    ScenarioModel,
    TankConfig,
    Uncoupled,
    Uniform,
    classify,
    estimate_design_matrix,
    from_samples,
)


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


# ---------------------------------------------------------------------------
# LinearModel


def test_linear_model_point_masses_propagate_exactly():
    model = LinearModel(np.eye(3), [from_samples([7.0]), from_samples([65.0]),
                                    from_samples([120.0])])
    draws = model.sample_frs(RngState(seed=1), 5)
    assert np.array_equal(draws, np.tile([7.0, 65.0, 120.0], (5, 1)))


def test_linear_model_scales_and_mixes_inputs():
    model = LinearModel([[2.0]], [Uniform(0.0, 1.0)])
    n = 20_000
    draws = model.sample_frs(RngState(seed=4), n)
    assert draws.shape == (n, 1)
    mean = float(draws.mean())
    # FR = 2*U(0,1) has mean 1 and sd 2/sqrt(12).
    assert abs(mean - 1.0) < 3.0 * (2.0 / math.sqrt(12.0)) / math.sqrt(n)


def test_linear_model_adds_output_noise():
    model = LinearModel([[0.0]], [from_samples([1.0])],
                        noise_pdfs=[Normal(5.0, 0.25)])
    draws = model.sample_frs(RngState(seed=8), 50_000)
    assert abs(float(draws.mean()) - 5.0) < 3.0 * 0.25 / math.sqrt(50_000)
    assert abs(float(draws.std(ddof=1)) - 0.25) < 0.01


def test_linear_model_noise_entries_may_be_missing():
    model = LinearModel(np.eye(2), [from_samples([1.0]), from_samples([2.0])],
                        noise_pdfs=[None, Normal(0.0, 1.0)])
    draws = model.sample_frs(RngState(seed=0), 100)
    assert np.all(draws[:, 0] == 1.0)  # no noise on the first output
    assert np.std(draws[:, 1]) > 0.0


def test_linear_model_validates_dimensions():
    with pytest.raises(ValueError):
        LinearModel(np.eye(2), [Uniform(0.0, 1.0)])  # one pdf, two DPs
    with pytest.raises(ValueError):
        LinearModel(np.eye(2), [Uniform(0.0, 1.0), Uniform(0.0, 1.0)],
                    noise_pdfs=[Normal(0.0, 1.0)])  # one noise, two FRs


def test_linear_model_dp_streams_are_independent():
    model = LinearModel(np.eye(2), [Uniform(0.0, 1.0), Uniform(0.0, 1.0)])
    dps = model.sample_dps(RngState(seed=21), 4000)
    corr = float(np.corrcoef(dps[:, 0], dps[:, 1])[0, 1])
    assert abs(corr) < 0.05
    assert not np.array_equal(dps[:, 0], dps[:, 1])


def test_same_seed_same_table():
    model = LinearModel([[1.0, 0.5]], [Uniform(0.0, 1.0), Normal(0.0, 1.0)])
    a = model.sample_frs(RngState(seed=33), 256)
    b = model.sample_frs(RngState(seed=33), 256)
    assert a.shape == (256, 1)
    assert np.array_equal(a, b)
    c = model.sample_frs(RngState(seed=34), 256)
    assert not np.array_equal(a, c)


# ---------------------------------------------------------------------------
# Finite-difference sensitivity
# (SimpleNamespace stands in for a model that has only ``evaluate``.)


def test_estimated_matrix_is_exact_for_linear_maps():
    true = np.array([[2.0, -1.0, 0.0], [0.5, 3.0, 1.5]])
    model = LinearModel(true, [Uniform(0.0, 1.0)] * 3)
    for step in (1e-1, 1e-3, 1e-6):
        est = estimate_design_matrix(model, [1.0, 2.0, 3.0], step=step)
        assert isinstance(est, DesignMatrix)
        # Central differences are exact on linear functions at any step.
        assert np.allclose(est.entries, true, atol=1e-8)


def test_estimated_slope_of_square_at_three_is_six():
    model = SimpleNamespace(evaluate=lambda d: np.array([d[0] ** 2]))
    est = estimate_design_matrix(model, [3.0], step=1e-4)
    assert est.entries[0, 0] == pytest.approx(6.0, abs=1e-6)


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
