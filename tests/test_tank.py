"""Batch-tank cycle simulator: exact noiseless behavior, reproducibility,
divergence reporting, and the cross-channel carryover effects."""

from __future__ import annotations

import hashlib
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from axdesign import (
    Empirical,
    Normal,
    RngState,
    SimulationDivergence,
    TankConfig,
    Triangular,
    Uniform,
    simulate_tank,
    tank_response,
)
from axdesign import distributions, tank
from axdesign.distributions import Substreams, draw_from
from axdesign.tank import _PHASE_RETRIES, _cross, _first, simulate

NOISY = {
    "level": Normal(0.0, 0.01),
    "temp": Normal(0.0, 0.1),
    "duration": Normal(0.0, 0.3),
    "inlet": Normal(0.0, 0.15),
}


# ---------------------------------------------------------------------------
# Configuration validation


def test_tank_config_validation():
    with pytest.raises(ValueError):
        TankConfig(level_low=7.0, level_high=7.0)
    with pytest.raises(ValueError):
        TankConfig(mix_duration=0.0)
    with pytest.raises(ValueError):
        TankConfig(timestep=-0.1)
    with pytest.raises(ValueError):
        TankConfig(cycles=0)
    with pytest.raises(ValueError):
        TankConfig(cycles=tank.MAX_CYCLES + 1)
    with pytest.raises(ValueError):
        TankConfig(sensor_noise={"pressure": Normal(0.0, 1.0)})
    with pytest.raises(ValueError):
        TankConfig(sensor_noise={"level": 0.5})  # not a Pdf


# ---------------------------------------------------------------------------
# Noise-free behavior is exact


def test_noiseless_cycles_hit_setpoints_exactly():
    rows = simulate(TankConfig(), RngState(seed=0), cycles=5)
    assert rows.shape == (5, 3)
    assert np.array_equal(rows, np.tile([7.0, 65.0, 120.0], (5, 1)))


def test_noiseless_cycles_ignore_the_seed():
    a = simulate(TankConfig(), RngState(seed=1), cycles=3)
    b = simulate(TankConfig(), RngState(seed=999), cycles=3)
    assert np.array_equal(a, b)


def test_cycle_count_must_be_positive():
    with pytest.raises(ValueError):
        simulate(TankConfig(), RngState(seed=0), cycles=0)
    with pytest.raises(ValueError):  # before allocating a 24 TB table
        simulate(TankConfig(), RngState(seed=0), cycles=10**12)


# ---------------------------------------------------------------------------
# Reproducibility with noise


def test_same_seed_reproduces_noisy_run():
    cfg = TankConfig(sensor_noise=NOISY)
    a = simulate(cfg, RngState(seed=42), cycles=50)
    b = simulate(cfg, RngState(seed=42), cycles=50)
    assert np.array_equal(a, b)
    c = simulate(cfg, RngState(seed=43), cycles=50)
    assert not np.array_equal(a, c)


def test_each_cycle_owns_its_substream():
    # Extending a run must not change the cycles already simulated.
    cfg = TankConfig(sensor_noise=NOISY)
    short = simulate(cfg, RngState(seed=7), cycles=5)
    long = simulate(cfg, RngState(seed=7), cycles=10)
    assert np.array_equal(short, long[:5])


# sha256 of the float64 bytes of 400 coupled cycles, one table per noise
# family on all four channels, computed with the search that draws and
# tests every sensor reading; skipping readings must not move a bit.
PINNED_GAINS = dict(mixer_to_temp=0.015, heater_to_level=0.3, mixer_to_level=0.02)
PINNED_NOISE = {
    "uniform": (
        {"level": Uniform(-0.02, 0.02), "temp": Uniform(-0.2, 0.15),
         "duration": Uniform(-0.5, 0.5), "inlet": Uniform(-0.3, 0.3)},
        "359442a34903f5920d0deb1d554c60caf64adf36706a6efc8c66de028cfbd61b",
    ),
    "normal": (
        {"level": Normal(0.001, 0.01), "temp": Normal(0.0, 0.1),
         "duration": Normal(0.0, 0.3), "inlet": Normal(-0.05, 0.15)},
        "4d97db1606ba52681bc97a07f2ffc84235bd5b162a82dc5d48121b37597a468c",
    ),
    "triangular": (
        {"level": Triangular(-0.03, 0.0, 0.02), "temp": Triangular(-0.2, 0.05, 0.2),
         "duration": Triangular(-0.6, 0.0, 0.6), "inlet": Triangular(-0.3, -0.3, 0.4)},
        "1c1098341103a29da29348c82ce24e3c0a7a2cbd69d099537e01356f63caae96",
    ),
}


@pytest.mark.parametrize("family", sorted(PINNED_NOISE))
def test_coupled_noisy_tables_are_pinned(family):
    noise, digest = PINNED_NOISE[family]
    cfg = TankConfig(sensor_noise=noise, **PINNED_GAINS)
    rows = simulate(cfg, RngState(seed=2024), cycles=400)
    assert hashlib.sha256(rows.tobytes()).hexdigest() == digest


def test_small_timestep_table_is_pinned():
    # At 1e-5 s a fill phase needs ~1.2e7 readings per search chunk, more
    # than one slice; the table is the one the whole-chunk search gave.
    cfg = TankConfig(sensor_noise=PINNED_NOISE["normal"][0], timestep=1e-5, **PINNED_GAINS)
    rows = simulate(cfg, RngState(seed=2024), cycles=3)
    assert hashlib.sha256(rows.tobytes()).hexdigest() == (
        "2a1b18b7166020cda93a8b16d3929a0842d27795ba64a9ae11af15e5970c286d")


def test_simulate_tank_wrapper_matches_simulate():
    cfg = TankConfig(sensor_noise=NOISY, cycles=4)
    direct = simulate(cfg, RngState(seed=3))
    table = simulate_tank(cfg, RngState(seed=3))
    assert table.columns == ("level", "temperature", "mix_duration")
    assert np.array_equal(table.values, direct)


# ---------------------------------------------------------------------------
# Noise responses


def test_sensor_noise_spreads_the_outputs():
    cfg = TankConfig(sensor_noise=NOISY)
    rows = simulate(cfg, RngState(seed=5), cycles=500)
    for col in range(3):
        assert float(rows[:, col].std()) > 0.0
    # Values still cluster near the setpoints.
    assert abs(float(rows[:, 0].mean()) - 7.0) < 0.05
    assert abs(float(rows[:, 1].mean()) - 65.0) < 0.3
    assert abs(float(rows[:, 2].mean()) - 120.0) < 0.3


def test_outputs_are_uncorrelated_without_cross_gains():
    cfg = TankConfig(sensor_noise=NOISY)
    rows = simulate(cfg, RngState(seed=11), cycles=10_000)
    for a, b in ((0, 1), (0, 2), (1, 2)):
        r = float(np.corrcoef(rows[:, a], rows[:, b])[0, 1])
        assert abs(r) < 0.05, (a, b, r)


# ---------------------------------------------------------------------------
# Cross-channel carryover


def test_mixer_heat_carryover_raises_steady_temperature():
    # Agitation adds mixer_to_temp * 0.5 degC per runtime second to the
    # batch, and one part in seven of the residue survives the refill, so
    # the steady temperature solves T = 64.8 + (T + 6 - 64.8)/7 = 65.8.
    cfg = TankConfig(mixer_to_temp=0.1)
    rows = simulate(cfg, RngState(seed=0), cycles=30)
    assert rows[0, 1] == 65.0  # cold-ish start: first cycle heats normally
    assert rows[-1, 1] == pytest.approx(65.8, abs=1e-6)
    # Level and runtime stay on their setpoints; only temperature moves.
    assert np.array_equal(rows[:, 0], np.full(30, 7.0))
    assert np.array_equal(rows[:, 2], np.full(30, 120.0))
    # The overshoot leaves the 65 +/- 0.5 band, so temperature success
    # probability drops below one.
    inside = float(((rows[:, 1] >= 64.5) & (rows[:, 1] <= 65.5)).mean())
    assert inside < 1.0


def test_heater_level_drift_moves_the_level_channel():
    cfg = TankConfig(heater_to_level=0.5)
    rows = simulate(cfg, RngState(seed=0), cycles=10)
    # The first cycle has no history, so its level is exact; later cycles
    # inherit a drift proportional to the previous heater effort.
    assert rows[0, 0] == 7.0
    assert rows[1, 0] != 7.0
    assert np.all(rows[:, 2] == 120.0)


def test_divergence_reports_phase_and_cycle():
    # A transmitter stuck a million degrees low never reads the setpoint.
    cfg = TankConfig(sensor_noise={"temp": Normal(-1e6, 1.0)})
    with pytest.raises(SimulationDivergence) as err:
        simulate(cfg, RngState(seed=0), cycles=3)
    assert err.value.cycle == 0
    assert "cycle 0" in str(err.value)
    assert "heater temperature" in str(err.value)


def test_divergence_in_the_drain_phase():
    # A level transmitter stuck high never reads the drain target.
    cfg = TankConfig(sensor_noise={"level": Normal(1e6, 1.0)})
    with pytest.raises(SimulationDivergence) as err:
        simulate(cfg, RngState(seed=0), cycles=2)
    assert "drain level" in str(err.value)


# ---------------------------------------------------------------------------
# The crossing search skips readings that cannot cross, on a reseated
# Substreams generator; it must return what drawing every reading from a
# fresh generator returns and leave the stream where that leaves it.


def _cross_every_reading(gen, pdf, start, step, target, bias, upward, cycle, what):
    """Reference search: draws and tests every reading of every chunk."""
    need = max(0.0, (target - start) / step) if step != 0.0 else 0.0
    chunk = int(need) + 64
    t0 = 0
    for _ in range(_PHASE_RETRIES):
        t = np.arange(t0, t0 + chunk, dtype=np.float64)
        true = start + step * t
        measured = true - bias
        if pdf is not None:
            measured = measured + draw_from(pdf, gen, chunk)
        hits = measured >= target if upward else measured <= target
        if hits.any():
            return float(true[int(np.argmax(hits))])
        t0 += chunk
    raise SimulationDivergence(f"{what} never crossed its setpoint", cycle)


def _outcome(search, seed, args, k=0):
    """Result of ``search`` on substream k of ``seed``, and the next four
    values of the stream after it. ``_cross`` runs on a Substreams seated
    there, the reference on a fresh generator."""
    if search is _cross:
        gen = Substreams(RngState(seed))
        gen.seat(k)
    else:
        gen = RngState(seed).substream(k).generator()
    try:
        result = search(gen, *args, 0, "phase")
    except SimulationDivergence:
        result = "diverged"
    return result, gen.random(4).tolist()


finite = st.floats(-10.0, 10.0)
width = st.floats(1e-3, 100.0)
noise_pdfs = st.one_of(
    st.none(),
    st.builds(lambda lo, w: Uniform(lo, lo + w), finite, width),
    st.builds(Normal, finite, st.floats(1e-3, 20.0)),
    st.builds(lambda lo, f, w: Triangular(lo, lo + f * w, lo + w),
              finite, st.floats(0.0, 1.0), width),
    st.builds(lambda xs: Empirical(tuple(xs)), st.lists(finite, min_size=1, max_size=8)),
)


@settings(max_examples=400, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    k=st.integers(0, 2**32 - 1),
    pdf=noise_pdfs,
    start=finite,
    step=st.one_of(st.just(0.0), st.floats(0.01, 1.0), st.floats(-1.0, -0.01)),
    target=finite,
    bias=st.floats(-1.0, 1.0),
    upward=st.booleans(),
)
def test_cross_matches_drawing_every_reading(seed, k, pdf, start, step, target, bias, upward):
    args = (pdf, start, step, target, bias, upward)
    assert _outcome(_cross, seed, args, k) == _outcome(_cross_every_reading, seed, args, k)


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    pdf=noise_pdfs,
    start=finite,
    step=st.one_of(st.floats(0.01, 1.0), st.floats(-1.0, -0.01)),
    target=finite,
    bias=st.floats(-1.0, 1.0),
    upward=st.booleans(),
    size=st.integers(1, 9),
)
def test_cross_in_small_slices_matches_drawing_every_reading(
        seed, pdf, start, step, target, bias, upward, size):
    # Readings drawn a few at a time, with the rest of the chunk skipped
    # after a hit, leave the result and the stream unchanged.
    args = (pdf, start, step, target, bias, upward)
    with mock.patch.object(tank, "_SLICE", size):
        sliced = _outcome(_cross, seed, args)
    assert sliced == _outcome(_cross_every_reading, seed, args)


def test_cross_search_covers_each_outcome():
    # The property above must see crossings in the first chunk, in a later
    # chunk, and divergence; pin one case of each.
    def run(pdf, start, step, target, bias, upward):
        args = (pdf, start, step, target, bias, upward)
        return _outcome(_cross, 3, args), _outcome(_cross_every_reading, 3, args)

    first, ref = run(Normal(0.0, 0.01), 7.0, -0.01, 1.0, 0.0, False)
    assert first == ref and first[0] == pytest.approx(1.0, abs=0.1)
    # A transmitter reading 1 low: no reading of the first 164-reading chunk
    # can cross, and the crossing sits in the second chunk at true ~ 2.
    late, ref = run(Normal(0.0, 0.01), 0.0, 0.01, 1.0, 1.0, True)
    assert late == ref and late[0] == pytest.approx(2.0, abs=0.1)
    never, ref = run(Uniform(0.0, 1.0), 0.0, -0.01, 4.0, 0.0, True)
    assert never == ref and never[0] == "diverged"


@pytest.mark.parametrize("pdf", [None, Normal(0.0, 0.01), Uniform(-0.3, 0.2)])
@pytest.mark.parametrize("step,target,upward", [
    (1e-3, 1e15 + 0.3, True),
    (1e-3, 1e15 + 1.7, True),
    (-1e-3, 1e15 - 0.3, False),
    (-1e-3, 1e15 - 1.1, False),
])
def test_cross_from_a_far_off_guess_matches_drawing_every_reading(pdf, step, target, upward):
    # Near 1e15 the true value start + step * t rounds to multiples of
    # 0.125, so it moves once every ~125 readings, and the closed-form
    # first reading is off by tens of readings.
    start = 1e15
    crosses = (lambda t: start + step * t >= target) if upward else \
        (lambda t: start + step * t <= target)
    first = next(t for t in range(10**4) if crosses(t))
    assert abs(first - (target - start) / step) > 10
    args = (pdf, start, step, target, 0.0, upward)
    assert _outcome(_cross, 5, args) == _outcome(_cross_every_reading, 5, args)


@settings(max_examples=500, deadline=None)
@given(
    lo=st.integers(-100, 100),
    width=st.integers(0, 300),
    threshold=st.integers(-110, 410),
    guess=st.one_of(
        st.sampled_from(["exact", "inside", "below", "above"]),
        st.floats(-1e6, 1e6),
        st.sampled_from([math.nan, math.inf, -math.inf, 1e300, -1e300]),
    ),
)
def test_first_equals_a_linear_scan_from_any_guess(lo, width, threshold, guess):
    hi = lo + width
    answer = next((t for t in range(lo, hi) if t >= threshold), hi)
    if isinstance(guess, str):  # relative to the answer
        guess = answer + {"exact": 0.0, "inside": -0.5, "below": -1.0, "above": 1.0}[guess]
    calls = []

    def can(t):
        assert lo <= t < hi
        calls.append(t)
        return t >= threshold

    assert _first(can, lo, hi, guess) == answer
    if math.isfinite(guess) and math.ceil(guess) == answer:
        assert len(calls) <= 2
    # A non-increasing predicate is found exactly from a guess at or below lo.
    if not guess > lo:
        expected = lo if lo < min(hi, threshold) else hi
        assert _first(lambda t: t < threshold, lo, hi, guess) == expected


def test_simulate_assigns_the_generator_state_only_to_draw():
    # Seats and skips are bookkeeping: each state assignment happens inside
    # a draw, so a cycle's seat and its first skip cost one assignment.
    log = []

    class Philox(np.random.Philox):  # the state setter checks the class name
        @property
        def state(self):
            return np.random.Philox.state.__get__(self)

        @state.setter
        def state(self, value):
            log.append("assign")
            np.random.Philox.state.__set__(self, value)

    real_random = Substreams.random

    def logged_random(self, n=None):
        values = real_random(self, n)
        log.append("draw")
        return values

    noise, digest = PINNED_NOISE["normal"]
    cfg = TankConfig(sensor_noise=noise, **PINNED_GAINS)
    with mock.patch.object(distributions, "Philox", Philox), \
            mock.patch.object(Substreams, "random", logged_random):
        rows = simulate(cfg, RngState(seed=2024), cycles=400)
    assert hashlib.sha256(rows.tobytes()).hexdigest() == digest
    assigns = [i for i, event in enumerate(log) if event == "assign"]
    assert 0 < len(assigns) <= log.count("draw")
    assert all(log[i + 1] == "draw" for i in assigns)


# ---------------------------------------------------------------------------
# Noise-free response map (for influence probing)


def test_response_reproduces_setpoints_at_nominal():
    out = tank_response(TankConfig(), [7.0, 65.0, 120.0])
    assert out.tolist() == [7.0, 65.0, 120.0]


def test_response_follows_commanded_setpoints():
    out = tank_response(TankConfig(), [6.5, 66.0, 90.0])
    assert out[0] == 6.5
    assert out[1] == 66.0
    assert out[2] == 90.0


def test_response_shows_mixer_heat_cross_effect():
    cfg = TankConfig(mixer_to_temp=0.1)
    base = tank_response(cfg, [7.0, 65.0, 120.0])
    longer_mix = tank_response(cfg, [7.0, 65.0, 160.0])
    # More agitation leaves the batch hotter than the setpoint.
    assert longer_mix[1] > base[1]
    assert base[1] > 65.0


def test_response_validation():
    cfg = TankConfig()
    with pytest.raises(ValueError):
        tank_response(cfg, [7.0, 65.0])
    with pytest.raises(ValueError):
        tank_response(cfg, [float("nan"), 65.0, 120.0])
    with pytest.raises(ValueError):
        tank_response(cfg, [0.5, 65.0, 120.0])  # below the drain setpoint
    with pytest.raises(ValueError):
        tank_response(cfg, [7.0, 65.0, -1.0])
