"""Batch tank scenario: a liquid conditioning cycle with injectable coupling.

The simulated process repeats a fixed cycle: drain the tank to the low level
setpoint, refill to the high setpoint, heat the contents to the temperature
setpoint (a one-directional thermostat: it raises the temperature to exactly
the setpoint and never cools), then run the agitator for a timed interval and
release the batch. Per cycle it records the achieved values of the three
controlled quantities: level at the close of fill, temperature at the start
of mixing, and mixing duration.

Dynamics are first order with constant rates, advanced by explicit Euler
steps; controlled phases stop on the first noisy sensor reading that crosses
the setpoint. Sensor noise is configurable per channel:

* ``level``    - added to every level transmitter reading,
* ``temp``     - added to every temperature transmitter reading,
* ``duration`` - mixing timer jitter, one draw per cycle,
* ``inlet``    - inlet stream temperature error, one draw per cycle.

Omitted channels are noiseless.

Coupling channels are additive, gain-scaled cross effects that vanish when
the gains are zero:

* ``mixer_to_temp``: agitation dissipates heat into the batch
  (``gain * 0.5 degC/s`` while mixing). The residue left in the tank carries
  that heat into the next cycle's blend, and because the thermostat cannot
  cool, a sufficiently heated blend arrives above the setpoint and the
  recorded temperature drifts upward.
* ``heater_to_level``: heating drifts the level transmitter zero
  (``gain * 1 m`` per degC added by the heater last cycle), so the fill
  overshoots by the drift.
* ``mixer_to_level``: agitation fouls the level transmitter
  (``gain * 1 m`` per nominal mixer runtime last cycle), with the same
  overshoot effect.

All process constants below are part of this module's contract; they are
chosen so that the noiseless, uncoupled cycle reproduces exactly
(7.0 m, 65.0 degC, 120.0 s) per cycle in float64.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .distributions import Pdf, RngState, draw_from
from .errors import SimulationDivergence

__all__ = ["TankConfig", "tank_response"]

FILL_RATE = 0.05  # m/s while the inlet valve is open
DRAIN_RATE = 0.1  # m/s while the outlet valve is open
HEAT_RATE = 0.02  # degC/s while the heater is engaged
INLET_TEMP = 64.8  # degC, nominal temperature of the inlet stream
TURB_HEAT_RATE = 0.5  # degC/s of agitation heating per unit mixer_to_temp gain
MIX_REF = 120.0  # s, reference runtime normalizing the mixer_to_level drift
LEVEL_DRIFT_PER_DEGC = 1.0  # m of transmitter drift per degC heated, per unit gain
LEVEL_DRIFT_PER_RUN = 1.0  # m of transmitter drift per reference runtime, per unit gain

_NOISE_CHANNELS = ("level", "temp", "duration", "inlet")
_PHASE_RETRIES = 4  # chunks of sensor readings searched before divergence
# Relative widening of a noise pdf's support when ruling readings out, so
# that rounding in the support's endpoints cannot rule out a crossing.
_SUPPORT_MARGIN = 1e-6


@dataclass(frozen=True)
class TankConfig:
    """Scenario configuration.

    ``sensor_noise`` maps channel names (``level``, ``temp``, ``duration``,
    ``inlet``) to error distributions; missing channels are noiseless.
    """

    level_low: float = 1.0
    level_high: float = 7.0
    temp_setpoint: float = 65.0
    mix_duration: float = 120.0
    sensor_noise: dict[str, Pdf] = field(default_factory=dict)
    mixer_to_temp: float = 0.0
    heater_to_level: float = 0.0
    mixer_to_level: float = 0.0
    timestep: float = 0.1
    cycles: int = 1000

    def __post_init__(self):
        numbers = (
            self.level_low, self.level_high, self.temp_setpoint,
            self.mix_duration, self.mixer_to_temp, self.heater_to_level,
            self.mixer_to_level, self.timestep,
        )
        if not all(isinstance(v, (int, float)) and math.isfinite(v) for v in numbers):
            raise ValueError("tank configuration values must be finite numbers")
        if not self.level_low < self.level_high:
            raise ValueError("level_low must be below level_high")
        if self.mix_duration <= 0:
            raise ValueError("mix_duration must be positive")
        if self.timestep <= 0:
            raise ValueError("timestep must be positive")
        if not (isinstance(self.cycles, int) and self.cycles >= 1):
            raise ValueError("cycles must be an integer >= 1")
        for name, pdf in self.sensor_noise.items():
            if name not in _NOISE_CHANNELS:
                raise ValueError(f"unknown sensor noise channel {name!r}")
            if not isinstance(pdf, Pdf):
                raise ValueError(f"sensor noise channel {name!r} must be a Pdf")


def _cross(gen, pdf, start, step, target, bias, upward, cycle, what):
    """True value at the first noisy reading across ``target``.

    Readings happen at t = 0, 1, 2, ...; the true value follows
    ``start + step * t`` (computed in closed form so a noiseless trajectory
    has no accumulation error) and the transmitter reports
    ``true + noise - bias``.

    Readings are searched in chunks, one noise draw per reading. Readings
    that could not cross even with the most extreme value ``pdf`` can
    return are not transformed: their uniforms are consumed with
    ``gen.random`` and the rest of the chunk is drawn, which leaves the
    stream and every drawn value as if the whole chunk had been drawn.
    """
    if step != 0.0:
        need = max(0.0, (target - start) / step)
    else:
        need = 0.0
    chunk = int(need) + 64
    crossed = np.greater_equal if upward else np.less_equal
    if pdf is not None:
        lo, hi = pdf._support
        pad = _SUPPORT_MARGIN * (hi - lo)
        reach = hi + pad if upward else lo - pad
    for t0 in range(0, _PHASE_RETRIES * chunk, chunk):
        t = np.arange(t0, t0 + chunk, dtype=np.float64)
        true = start + step * t
        measured = true - bias
        i0 = 0
        if pdf is not None:
            can = crossed(measured + reach, target)
            i0 = int(can.argmax())
            if not can[i0]:  # no reading in this chunk can cross
                gen.random(chunk)
                continue
            gen.random(i0)
            measured = measured[i0:] + draw_from(pdf, gen, chunk - i0)
        hits = crossed(measured, target)
        i = int(hits.argmax())
        if hits[i]:
            return float(true[i0 + i])
    raise SimulationDivergence(f"{what} never crossed its setpoint", cycle)


def simulate(config: TankConfig, rng: RngState, cycles: int | None = None) -> np.ndarray:
    """Run the cycle simulation; returns an (n, 3) array of achieved values.

    Columns: level at close of fill (m), temperature at mix start (degC),
    mixing duration (s). Each cycle draws from its own substream of ``rng``,
    so results are reproducible from the seed regardless of batching.

    Raises :class:`SimulationDivergence` (with the cycle index) when a
    controlled phase fails to cross its setpoint within a generous budget of
    sensor readings.
    """
    n = config.cycles if cycles is None else cycles
    if n < 1:
        raise ValueError("cycle count must be >= 1")
    dt = config.timestep
    noise = config.sensor_noise
    lvl_pdf = noise.get("level")
    tmp_pdf = noise.get("temp")
    dur_pdf = noise.get("duration")
    inl_pdf = noise.get("inlet")

    out = np.empty((n, 3), dtype=np.float64)
    temp = config.temp_setpoint
    level = config.level_high
    prev_heat = 0.0  # degC added by the heater in the previous cycle
    prev_run = 0.0  # mixer runtime in the previous cycle, s

    for k in range(n):
        gen = rng.substream(k).generator()
        drift = (
            config.heater_to_level * prev_heat * LEVEL_DRIFT_PER_DEGC
            + config.mixer_to_level * (prev_run / MIX_REF) * LEVEL_DRIFT_PER_RUN
        )

        # Drain until the transmitter reads the low setpoint.
        low = _cross(gen, lvl_pdf, level, -DRAIN_RATE * dt, config.level_low,
                     drift, False, k, "drain level")

        # Fill until the transmitter reads the high setpoint; the inlet
        # stream blends with the residue (exact mass-weighted mixing, the
        # telescoped form of per-step Euler blending).
        achieved_level = _cross(gen, lvl_pdf, low, FILL_RATE * dt,
                                config.level_high, drift, True, k, "fill level")
        t_in = INLET_TEMP
        if inl_pdf is not None:
            t_in += float(draw_from(inl_pdf, gen, 1)[0])
        t_blend = t_in + low * (temp - t_in) / achieved_level

        # Heat to the setpoint. The thermostat cuts at the setpoint exactly
        # and never cools; a noisy reading can stop it early (below the
        # setpoint) or skip it entirely when the blend arrives already hot.
        if t_blend >= config.temp_setpoint:
            achieved_temp = t_blend
        else:
            stopped = _cross(gen, tmp_pdf, t_blend, HEAT_RATE * dt,
                             config.temp_setpoint, 0.0, True, k, "heater temperature")
            achieved_temp = max(t_blend, min(stopped, config.temp_setpoint))
        heat_added = achieved_temp - t_blend

        # Timed mix; agitation heat stays in the batch for the next cycle.
        run = config.mix_duration
        if dur_pdf is not None:
            run = max(0.0, run + float(draw_from(dur_pdf, gen, 1)[0]))

        out[k, 0] = achieved_level
        out[k, 1] = achieved_temp
        out[k, 2] = run

        temp = achieved_temp + config.mixer_to_temp * TURB_HEAT_RATE * run
        level = achieved_level
        prev_heat = heat_added
        prev_run = run

    return out


def tank_response(config: TankConfig, dps) -> np.ndarray:
    """Noiseless two-cycle startup response to the controller settings.

    ``dps`` is the design parameter vector (level setpoint m, temperature
    setpoint degC, mixer runtime s). The tank starts full at the commanded
    level with inlet-temperature contents, runs two cycles with exact
    (continuous-time) setpoint crossings and no sensor noise, and returns the
    second cycle's recorded triple. Two cycles, not the long-run fixed point:
    the cross effects need one cycle of history to appear, while the direct
    setpoint influences are still present.

    The map is smooth within an operating regime, which makes it suitable
    for finite-difference influence estimation.
    """
    dps = np.asarray(dps, dtype=np.float64)
    if dps.shape != (3,):
        raise ValueError("tank response expects a 3-vector (level, temperature, runtime)")
    if not np.all(np.isfinite(dps)):
        raise ValueError("tank response requires finite design parameter values")
    high, tsp, run = (float(v) for v in dps)
    if high <= config.level_low:
        raise ValueError("commanded level must exceed the low setpoint")
    if run < 0:
        raise ValueError("mixer runtime must be non-negative")

    low = config.level_low
    temp = INLET_TEMP  # standard cold start

    def cycle(drift):
        nonlocal temp
        start = low + drift
        achieved_level = high + drift
        t_blend = INLET_TEMP + start * (temp - INLET_TEMP) / achieved_level
        achieved_temp = t_blend if t_blend >= tsp else tsp
        heat_added = achieved_temp - t_blend
        temp = achieved_temp + config.mixer_to_temp * TURB_HEAT_RATE * run
        return achieved_level, achieved_temp, heat_added

    _, _, heat1 = cycle(0.0)
    drift2 = (
        config.heater_to_level * heat1 * LEVEL_DRIFT_PER_DEGC
        + config.mixer_to_level * (run / MIX_REF) * LEVEL_DRIFT_PER_RUN
    )
    lvl2, tmp2, _ = cycle(drift2)
    return np.array([lvl2, tmp2, run], dtype=np.float64)
