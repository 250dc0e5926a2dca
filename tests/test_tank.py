"""Batch-tank cycle simulator: exact noiseless behavior, reproducibility,
divergence reporting, and the cross-channel carryover effects."""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import math
import warnings
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
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
from axdesign import tank
from axdesign.distributions import draw_from
from axdesign.tank import _PHASE_RETRIES, _cross, simulate

NOISY = {
    "level": Normal(0.0, 0.01),
    "temp": Normal(0.0, 0.1),
    "duration": Normal(0.0, 0.3),
    "inlet": Normal(0.0, 0.15),
}


def _stream(rng):
    """``stream`` for ``simulate``: substream c of ``rng``, opened at value 0."""
    return lambda c: rng.substream(c).generator()


def _sim(config, rng, cycles):
    """``cycles`` cycles of ``config``, noise channel c reading substream c of
    ``rng``, as ``_simulate_every_reading(config, rng, cycles)`` runs them."""
    return simulate(dataclasses.replace(config, cycles=cycles), _stream(rng))


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
    with pytest.raises(ValueError):
        TankConfig(cycles=True)
    with pytest.raises(ValueError):
        TankConfig(timestep=True)


# ---------------------------------------------------------------------------
# Noise-free behavior is exact


def test_noiseless_cycles_hit_setpoints_exactly():
    rows = _sim(TankConfig(), RngState(seed=0), 5)
    assert rows.shape == (5, 3)
    assert np.array_equal(rows, np.tile([7.0, 65.0, 120.0], (5, 1)))


def test_noiseless_cycles_ignore_the_seed():
    a = _sim(TankConfig(), RngState(seed=1), 3)
    b = _sim(TankConfig(), RngState(seed=999), 3)
    assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# Reproducibility with noise


def test_same_seed_reproduces_noisy_run():
    cfg = TankConfig(sensor_noise=NOISY)
    a = _sim(cfg, RngState(seed=42), 50)
    b = _sim(cfg, RngState(seed=42), 50)
    assert np.array_equal(a, b)
    c = _sim(cfg, RngState(seed=43), 50)
    assert not np.array_equal(a, c)


def test_extending_a_run_keeps_earlier_cycles():
    # Each channel reads one stream in order, so a shorter run is a prefix.
    cfg = TankConfig(sensor_noise=NOISY)
    short = _sim(cfg, RngState(seed=7), 5)
    long = _sim(cfg, RngState(seed=7), 10)
    assert np.array_equal(short, long[:5])


# ---------------------------------------------------------------------------
# The reference: every reading tested in order, one value per reading that
# can cross, each from a fresh generator of the channel's substream.


class _Counted:
    """An iterator of noise values that counts the values taken."""

    def __init__(self, values):
        self.values, self.taken = values, 0

    def __next__(self):
        self.taken += 1
        return next(self.values)


def _fresh_values(pdf, rng):
    """The reference values of a channel: ``draw_from(pdf, gen, 1)[0]``,
    one at a time, from ``gen = rng.generator()``."""
    gen = rng.generator()
    while True:
        yield draw_from(pdf, gen, 1)[0]


_SCAN = 2**16  # readings the reference tests per array


def _reach(pdf, upward):
    """The most extreme value a draw of ``pdf`` can take, with the
    support widened by ``tank._SUPPORT_MARGIN``; 0 without noise."""
    if pdf is None:
        return 0.0
    lo, hi = pdf._support
    pad = tank._SUPPORT_MARGIN * (hi - lo)
    return hi + pad if upward else lo - pad


def _cross_every_reading(values, pdf, start, step, target, bias, upward, cycle, what):
    """Reference search: tests every reading of every chunk in order. A
    reading can cross if its noiseless value moved by the pdf's widened
    support crosses; such a reading takes the next of ``values`` and is
    tested with it, and any other reading takes none."""
    need = max(0.0, (target - start) / step) if step != 0.0 else 0.0
    readings = _PHASE_RETRIES * (int(need) + 64)
    reach = _reach(pdf, upward)
    crossed = np.greater_equal if upward else np.less_equal
    for t0 in range(0, readings, _SCAN):
        true = start + step * np.arange(t0, min(t0 + _SCAN, readings), dtype=np.float64)
        for t in np.flatnonzero(crossed(true - bias + reach, target)).tolist():
            noise = 0.0 if pdf is None else next(values)
            if crossed(true[t] - bias + noise, target):
                return float(true[t])
    raise SimulationDivergence(f"{what} never crossed its setpoint", cycle)


def _simulate_every_reading(config, rng, cycles):
    """Reference run: the tank cycle with the reference search, channel c
    reading ``_fresh_values`` of ``rng.substream(c)``. Returns the table and
    the values each channel took."""
    pdfs = dict(zip(tank._NOISE_CHANNELS, map(config.sensor_noise.get, tank._NOISE_CHANNELS)))
    values = {name: _Counted(_fresh_values(pdf, rng.substream(c)))
              for c, (name, pdf) in enumerate(pdfs.items()) if pdf is not None}
    lvl, tmp, dur, inl = map(values.get, tank._NOISE_CHANNELS)
    dt = config.timestep
    rows = []
    temp, level, prev_heat, prev_run = config.temp_setpoint, config.level_high, 0.0, 0.0
    for k in range(cycles):
        drift = (config.heater_to_level * prev_heat * tank.LEVEL_DRIFT_PER_DEGC
                 + config.mixer_to_level * (prev_run / tank.MIX_REF) * tank.LEVEL_DRIFT_PER_RUN)
        low = _cross_every_reading(lvl, pdfs["level"], level, -tank.DRAIN_RATE * dt,
                                   config.level_low, drift, False, k, "drain level")
        if low < 0.0:
            raise SimulationDivergence("drain ran the tank below empty", k)
        achieved_level = _cross_every_reading(lvl, pdfs["level"], low, tank.FILL_RATE * dt,
                                              config.level_high, drift, True, k, "fill level")
        if achieved_level == 0.0:
            raise SimulationDivergence("fill ended with an empty tank", k)
        t_in = tank.INLET_TEMP
        if inl is not None:
            t_in += next(inl)
        t_blend = t_in + low * (temp - t_in) / achieved_level
        achieved_temp = t_blend
        if t_blend < config.temp_setpoint:
            stopped = _cross_every_reading(tmp, pdfs["temp"], t_blend, tank.HEAT_RATE * dt,
                                           config.temp_setpoint, 0.0, True, k,
                                           "heater temperature")
            achieved_temp = max(t_blend, min(stopped, config.temp_setpoint))
        run = config.mix_duration
        if dur is not None:
            run = max(0.0, run + next(dur))
        rows.append((achieved_level, achieved_temp, run))
        temp = achieved_temp + config.mixer_to_temp * tank.TURB_HEAT_RATE * run
        level, prev_heat, prev_run = achieved_level, achieved_temp - t_blend, run
    taken = {name: counted.taken for name, counted in values.items()}
    return np.array(rows, dtype=np.float64), taken


def _sha(rows):
    return hashlib.sha256(rows.tobytes()).hexdigest()


# sha256 of the float64 bytes of 400 coupled cycles, one table per noise
# family on all four channels. Each is the reference run's table, and the
# simulator must give it too.
PINNED_GAINS = dict(mixer_to_temp=0.015, heater_to_level=0.3, mixer_to_level=0.02)
PINNED_NOISE = {
    "uniform": (
        {"level": Uniform(-0.02, 0.02), "temp": Uniform(-0.2, 0.15),
         "duration": Uniform(-0.5, 0.5), "inlet": Uniform(-0.3, 0.3)},
        "a24c7acf76f9738dfc9ac70efb7ee359fd2f58418fd89be081b08322cfa69819",
    ),
    "normal": (
        {"level": Normal(0.001, 0.01), "temp": Normal(0.0, 0.1),
         "duration": Normal(0.0, 0.3), "inlet": Normal(-0.05, 0.15)},
        "75e78b92eecba5066c853a4c325d31c6c7ff3c298f7685b30fdb7dc655d4750f",
    ),
    "triangular": (
        {"level": Triangular(-0.03, 0.0, 0.02), "temp": Triangular(-0.2, 0.05, 0.2),
         "duration": Triangular(-0.6, 0.0, 0.6), "inlet": Triangular(-0.3, -0.3, 0.4)},
        "c351629679eca8d783d594ac4e0d1f1bd62f00d36b6094f3a9361b1ddacffc10",
    ),
}


def _pinned_config(family, **changes):
    return TankConfig(sensor_noise=PINNED_NOISE[family][0], **PINNED_GAINS, **changes)


@pytest.mark.parametrize("family", sorted(PINNED_NOISE))
def test_coupled_noisy_tables_are_pinned(family):
    cfg = _pinned_config(family)
    digest = PINNED_NOISE[family][1]
    assert _sha(_sim(cfg, RngState(seed=2024), 400)) == digest
    assert _sha(_simulate_every_reading(cfg, RngState(seed=2024), 400)[0]) == digest


def test_small_timestep_table_is_pinned():
    # At 1e-5 s a fill phase needs ~1.2e7 readings per search chunk, and
    # tens of thousands of them can cross: hundreds of blocks of one channel.
    cfg = _pinned_config("normal", timestep=1e-5)
    digest = "2c1861419c1266e4535f33dde471147594aca29476c09a88f26e2625c4dd2194"
    assert _sha(_sim(cfg, RngState(seed=2024), 3)) == digest
    assert _sha(_simulate_every_reading(cfg, RngState(seed=2024), 3)[0]) == digest


@pytest.mark.parametrize("block", [1, 2, 3, 7])
@pytest.mark.parametrize("family", sorted(PINNED_NOISE))
def test_tables_do_not_depend_on_the_block_size(family, block):
    with mock.patch.object(tank, "_BLOCK", block):
        rows = _sim(_pinned_config(family), RngState(seed=2024), 400)
    assert _sha(rows) == PINNED_NOISE[family][1]


@pytest.mark.parametrize("noise", [{}, {"temp": Normal(0.0, 0.1)}, PINNED_NOISE["normal"][0]])
def test_a_run_builds_one_generator_per_noisy_channel_and_draws_in_blocks(noise):
    # Each noisy channel builds one generator and draws a block at a time.
    cfg = TankConfig(sensor_noise=noise, **PINNED_GAINS)
    expected, taken = _simulate_every_reading(cfg, RngState(seed=2024), 400)
    built, streams, draws = [], {}, Counter()
    real_generator = RngState.generator

    def generator(self):
        gen = real_generator(self)
        built.append(self.stream)
        streams[id(gen)] = self.stream
        return gen

    def logged_draw(pdf, gen, n):
        draws[streams[id(gen)]] += 1
        return draw_from(pdf, gen, n)

    with mock.patch.object(RngState, "generator", generator), \
            mock.patch.object(tank, "draw_from", logged_draw):
        rows = _sim(cfg, RngState(seed=2024), 400)
    assert np.array_equal(rows, expected)
    channels = {(c,): name for c, name in enumerate(tank._NOISE_CHANNELS) if name in noise}
    assert sorted(built) == sorted(channels)
    for stream, name in channels.items():
        assert draws[stream] <= math.ceil(taken[name] / tank._BLOCK) + 1


def test_simulate_tank_wrapper_matches_simulate():
    cfg = TankConfig(sensor_noise=NOISY, cycles=4)
    direct = simulate(cfg, _stream(RngState(seed=3)))
    table = simulate_tank(cfg, RngState(seed=3))
    assert table.columns == ("level", "temperature", "mix_duration")
    assert np.array_equal(table.values, direct)


# ---------------------------------------------------------------------------
# Noise responses


def test_sensor_noise_spreads_the_outputs():
    cfg = TankConfig(sensor_noise=NOISY)
    rows = _sim(cfg, RngState(seed=5), 500)
    for col in range(3):
        assert float(rows[:, col].std()) > 0.0
    # Values still cluster near the setpoints.
    assert abs(float(rows[:, 0].mean()) - 7.0) < 0.05
    assert abs(float(rows[:, 1].mean()) - 65.0) < 0.3
    assert abs(float(rows[:, 2].mean()) - 120.0) < 0.3


def test_outputs_are_uncorrelated_without_cross_gains():
    cfg = TankConfig(sensor_noise=NOISY)
    rows = _sim(cfg, RngState(seed=11), 10_000)
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
    rows = _sim(cfg, RngState(seed=0), 30)
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
    rows = _sim(cfg, RngState(seed=0), 10)
    # The first cycle has no history, so its level is exact; later cycles
    # inherit a drift proportional to the previous heater effort.
    assert rows[0, 0] == 7.0
    assert rows[1, 0] != 7.0
    assert np.all(rows[:, 2] == 120.0)


def test_divergence_reports_phase_and_cycle():
    # A transmitter stuck a million degrees low never reads the setpoint.
    cfg = TankConfig(sensor_noise={"temp": Normal(-1e6, 1.0)})
    with pytest.raises(SimulationDivergence) as err:
        _sim(cfg, RngState(seed=0), 3)
    assert err.value.cycle == 0
    assert "cycle 0" in str(err.value)
    assert "heater temperature" in str(err.value)


def test_divergence_in_the_drain_phase():
    # A level transmitter stuck high never reads the drain target.
    cfg = TankConfig(sensor_noise={"level": Normal(1e6, 1.0)})
    with pytest.raises(SimulationDivergence) as err:
        _sim(cfg, RngState(seed=0), 2)
    assert "drain level" in str(err.value)


def test_a_fill_that_ends_with_an_empty_tank_diverges():
    # Level noise up to 9 m at 1 s steps: in cycle 1 the drain runs the
    # tank down to exactly 0.0 m, and the fill's first reading already reads
    # the high setpoint, so the blend has no mass to weigh.
    cfg = TankConfig(sensor_noise={"level": Uniform(0.0, 9.0)}, timestep=1.0)
    for run in (_sim, _simulate_every_reading):
        with pytest.raises(SimulationDivergence) as err:
            run(cfg, RngState(seed=14), 20)
        assert err.value.cycle == 1
        assert str(err.value) == "cycle 1: fill ended with an empty tank"


def test_a_drain_that_ends_below_empty_diverges():
    # The same noise at seed 0: the drain's last reading comes 0.3 m below
    # empty, which the tank cannot hold.
    cfg = TankConfig(sensor_noise={"level": Uniform(0.0, 9.0)}, timestep=1.0)
    for run in (_sim, _simulate_every_reading):
        with pytest.raises(SimulationDivergence) as err:
            run(cfg, RngState(seed=0), 20)
        assert err.value.cycle == 0
        assert str(err.value) == "cycle 0: drain ran the tank below empty"


def test_a_phase_whose_step_underflows_to_zero():
    # At a timestep of 5e-324 every phase step underflows to 0, so each
    # phase reads one true value over and over: a noiseless drain never
    # leaves the high level, and with noise the first reading the noise
    # takes across the setpoint stops each phase where it started.
    with pytest.raises(SimulationDivergence) as err:
        _sim(TankConfig(timestep=5e-324), RngState(seed=4), 3)
    assert err.value.cycle == 0
    assert "drain level never crossed its setpoint" in str(err.value)
    cfg = TankConfig(timestep=5e-324,
                     sensor_noise={"level": Uniform(-7, 7), "temp": Uniform(-1, 1)})
    rows = _sim(cfg, RngState(seed=4), 3)
    assert np.array_equal(rows, _simulate_every_reading(cfg, RngState(seed=4), 3)[0])
    assert rows.tolist() == [[7.0, 65.0, 120.0]] * 3


def _channel_pdfs(scale):
    """No noise, or one of the four pdf families with values within a few
    ``scale`` of 0."""
    at, width = st.floats(-scale, scale), st.floats(scale / 100, 2 * scale)
    return st.one_of(
        st.none(),
        st.builds(lambda lo, w: Uniform(lo, lo + w), at, width),
        st.builds(Normal, at, width),
        st.builds(lambda lo, f, w: Triangular(lo, lo + f * w, lo + w),
                  at, st.floats(0.0, 1.0), width),
        st.builds(lambda xs: Empirical(tuple(xs)), st.lists(at, min_size=1, max_size=8)),
    )


@settings(max_examples=50, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    pdfs=st.tuples(_channel_pdfs(0.02), _channel_pdfs(0.2), _channel_pdfs(0.5),
                   _channel_pdfs(0.3)),
    gains=st.tuples(*[st.floats(0.0, 0.3)] * 3),
    timestep=st.sampled_from([0.1, 0.05, 0.02]),
)
def test_simulate_matches_the_reference_on_random_configs(seed, pdfs, gains, timestep):
    # Any mix of noiseless and noisy channels, gains and timesteps: the
    # simulator's table is the per-reading reference's, byte for byte.
    noise = {name: pdf for name, pdf in zip(tank._NOISE_CHANNELS, pdfs) if pdf is not None}
    cfg = TankConfig(sensor_noise=noise, timestep=timestep,
                     **dict(zip(("mixer_to_temp", "heater_to_level", "mixer_to_level"), gains)))

    def outcome(run):
        try:
            return run().tobytes()
        except SimulationDivergence as err:
            return str(err)

    assert outcome(lambda: _sim(cfg, RngState(seed), 20)) == \
        outcome(lambda: _simulate_every_reading(cfg, RngState(seed), 20)[0])


@pytest.mark.parametrize("config,message", [
    # Agitation heat overflows the temperature carried into cycle 1.
    (TankConfig(mixer_to_temp=1e308), "cycle 1: recorded level, temperature and "
     "duration (7, inf, 120) are not all finite"),
    # Timer jitter pushes the first mixing duration past float64.
    (TankConfig(mix_duration=1e308, sensor_noise={"duration": Uniform(1e308, 1.7e308)}),
     "cycle 0: recorded level, temperature and duration (7, 65, inf) are not all finite"),
])
def test_a_runaway_run_diverges_at_its_first_non_finite_cycle(config, message):
    with pytest.raises(SimulationDivergence) as err:
        _sim(config, RngState(seed=0), 5)
    assert str(err.value) == message


def test_overflowing_sensor_noise_runs_without_a_warning():
    # Most draws of sigma 1e308 overflow to +-inf readings, which cross at
    # once; numpy's overflow warning must not reach the caller.
    cfg = TankConfig(sensor_noise={"level": Normal(0.0, 1e308)})
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rows = _sim(cfg, RngState(seed=0), 5)
    assert np.isfinite(rows).all()
    assert rows[:, 1:].tolist() == [[65.0, 120.0]] * 5


# ---------------------------------------------------------------------------
# The crossing search finds the readings that can cross by the closed form
# and reads its values through a channel's blocks; it must return what the
# reference returns and take as many values.


def _outcome(search, seed, args, k=0):
    """Result of ``search`` on substream k of ``seed``, and the number of
    noise values it took: ``_cross`` reads them through ``tank._noise``,
    and takes the pdf's reach in place of the pdf, the reference through
    ``_fresh_values``. A noiseless channel's values are zeros, which count
    as none taken."""
    pdf = args[0]
    if search is _cross:
        values = _Counted(tank._noise(pdf, _stream(RngState(seed)), k))
        args = (_reach(pdf, args[5]), *args[1:])
    else:
        values = _Counted(_fresh_values(pdf, RngState(seed).substream(k)))
    try:
        result = search(values, *args, 0, "phase")
    except SimulationDivergence:
        result = "diverged"
    return result, 0 if pdf is None else values.taken


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
    step=st.one_of(st.sampled_from([0.0, -0.0]), st.floats(0.01, 1.0), st.floats(-1.0, -0.01)),
    target=finite,
    bias=st.floats(-1.0, 1.0),
)
def test_cross_matches_drawing_every_reading(seed, k, pdf, start, step, target, bias):
    # A phase approaches its target, or stands still when its step
    # underflows to +-0 (the drain step to -0.0, fill and heat to 0.0).
    upward = math.copysign(1.0, step) > 0
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
    size=st.integers(1, 9),
)
def test_cross_in_small_blocks_matches_drawing_every_reading(
        seed, pdf, start, step, target, bias, size):
    # Values drawn a few at a time leave the result and the count unchanged.
    args = (pdf, start, step, target, bias, step > 0)
    with mock.patch.object(tank, "_BLOCK", size):
        blocked = _outcome(_cross, seed, args)
    assert blocked == _outcome(_cross_every_reading, seed, args)


def test_cross_search_covers_each_outcome():
    # The property above must see crossings within the readings a phase
    # needs plus 64, beyond them, and divergence; pin one case of each.
    def run(pdf, start, step, target, bias, upward):
        args = (pdf, start, step, target, bias, upward)
        return _outcome(_cross, 3, args), _outcome(_cross_every_reading, 3, args)

    first, ref = run(Normal(0.0, 0.01), 7.0, -0.01, 1.0, 0.0, False)
    assert first == ref and first[0] == pytest.approx(1.0, abs=0.1)
    # A transmitter reading 1 low: none of the first 164 readings (100
    # needed, plus 64) can cross, and the crossing sits beyond them at
    # true ~ 2.
    late, ref = run(Normal(0.0, 0.01), 0.0, 0.01, 1.0, 1.0, True)
    assert late == ref and late[0] == pytest.approx(2.0, abs=0.1)
    # A transmitter reading a million low never crosses in the budget.
    never, ref = run(Uniform(0.0, 1.0), 0.0, 0.01, 4.0, 1e6, True)
    assert never == ref and never[0] == "diverged"


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    pdf=noise_pdfs.filter(lambda pdf: pdf is not None),
    start=finite,
    step=st.one_of(st.floats(0.01, 1.0), st.floats(-1.0, -0.01)),
    bias=st.floats(-1.0, 1.0),
    at=st.integers(0, 63),
)
def test_cross_rounds_each_reading_as_the_reference(seed, pdf, start, step, bias, at):
    # Each target is the float64 value of a reading beyond every reading
    # before it, read with the channel's values in order, so the crossing
    # sits exactly on it: a search that rounded a reading differently would
    # stop elsewhere. Readings that cannot cross take no value, so a target
    # counts where reading ``first``, which takes the first value, is the
    # first reading that can cross it.
    upward = step > 0
    crossed = np.greater_equal if upward else np.less_equal
    noise = draw_from(pdf, RngState(seed).substream(0).generator(), at + 1)
    true = start + step * np.arange(at + 1.0)
    checked = 0
    for first in range(at + 1):
        measured = true[first:] - bias + noise[:at + 1 - first]
        for i, target in enumerate(measured.tolist()):
            if crossed(measured[:i], target).any():
                continue
            can = crossed(true - bias + _reach(pdf, upward), target)
            if can[:first].any() or not can[first]:
                continue
            args = (pdf, start, step, target, bias, upward)
            expected = (float(true[first + i]), i + 1)
            assert _outcome(_cross_every_reading, seed, args) == expected
            assert _outcome(_cross, seed, args) == expected
            checked += 1
    assume(checked)


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


def _search(need, threshold, guess, upward):
    """Where ``_cross``'s search puts the first reading that can cross, and
    the readings it tested, for a budget of ``_PHASE_RETRIES * (need + 64)``
    readings of which reading t can cross iff ``t >= threshold``, and the
    closed-form first reading ``guess``.

    With ``start`` 0, ``step`` +-1, no bias and no noise, reading t has the
    value +-t. The target is a float subclass, so Python asks it first in
    every comparison with a float: it counts the search's tests and answers
    them with ``threshold``, and its ``-`` and ``+`` make the search's need
    ``need`` and its guess ``guess``. The scan compares with
    ``float(target)``, which crosses from ``threshold`` on, and reads one
    zero per reading, so a search that stopped at the first reading that
    can cross leaves the scan one reading to take (none if no reading of
    the budget can cross, and ``_cross`` diverges).
    """
    sign = 1.0 if upward else -1.0
    tested = []

    class Target(float):
        def __sub__(self, start):
            return sign * need

        def __add__(self, bias):
            return sign * guess

        def __le__(self, value):  # ``value >= target``, the upward test
            tested.append(int(sign * value))
            return tested[-1] >= threshold

        __ge__ = __le__  # ``value <= target``, the downward test

    zeros = _Counted(itertools.repeat(0.0))
    try:
        found = sign * _cross(zeros, 0.0, 0.0, sign, Target(sign * threshold), 0.0,
                              upward, 0, "phase")
    except SimulationDivergence:
        found = _PHASE_RETRIES * (need + 64)
        assert zeros.taken == 0
    else:
        assert zeros.taken == 1
    return found, tested


@settings(max_examples=500, deadline=None)
@given(
    need=st.integers(0, 300),
    threshold=st.integers(-10, 1500),
    guess=st.one_of(
        st.sampled_from(["exact", "inside", "below", "above"]),
        st.floats(-1e6, 1e6),
        st.sampled_from([math.nan, math.inf, -math.inf, 1e300, -1e300]),
    ),
    upward=st.booleans(),
)
def test_first_equals_a_linear_scan_from_any_guess(need, threshold, guess, upward):
    budget = _PHASE_RETRIES * (need + 64)
    answer = next((t for t in range(budget) if t >= threshold), budget)
    if isinstance(guess, str):  # relative to the answer
        guess = answer + {"exact": 0.0, "inside": -0.5, "below": -1.0, "above": 1.0}[guess]
    found, tested = _search(need, threshold, guess, upward)
    assert found == answer
    assert all(0 <= t < budget for t in tested)
    if math.isfinite(guess) and math.ceil(guess) == answer:
        assert len(tested) <= 2


@settings(max_examples=300, deadline=None)
@given(
    need=st.integers(0, tank._MAX_NEED - 64),
    where=st.floats(0.0, 1.0),
    guess=st.one_of(st.floats(), st.integers(-2**60, 2**60)),
    upward=st.booleans(),
)
def test_first_stays_bounded_when_the_guess_is_wrong(need, where, guess, upward):
    # Rounding-coarse trajectories put the closed-form guess far from the
    # first reading that can cross; the search must still end quickly.
    budget = _PHASE_RETRIES * (need + 64)
    answer = int(where * budget)
    if isinstance(guess, int):  # an offset from the answer
        guess = float(answer + guess)
    found, tested = _search(need, answer, guess, upward)
    assert found == answer
    assert len(tested) <= budget.bit_length() + 2


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


@pytest.mark.parametrize("config, dps", [
    (TankConfig(level_low=-5.0, cycles=3), [1.0, 65.0, 120.0]),
    (TankConfig(level_low=-5.0, cycles=3), [0.0, 65.0, 120.0]),
    # Cycle one heats 1.2 degC, which drifts the transmitter 1.2 m low, so
    # cycle two's drain leaves 0.5 - 1.2 m.
    (TankConfig(level_low=0.5, heater_to_level=-1.0), [7.0, 66.0, 120.0]),
])
def test_response_refuses_a_drain_below_empty(config, dps):
    # simulate refuses such a drain too. Filled from it, the first case read
    # its setpoints from a residue of -5 m and the second divided by zero.
    with pytest.raises(ValueError, match="below an empty tank"):
        tank_response(config, dps)
