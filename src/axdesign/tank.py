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

import bisect
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .distributions import _FLOAT_MAX, Pdf, draw_from, float64_array, is_count, is_real
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
# Most cycles one run simulates: its table of three float64 per cycle then
# takes at most 240 MB.
MAX_CYCLES = 10**7

_NOISE_CHANNELS = ("level", "temp", "duration", "inlet")
_PHASE_RETRIES = 4  # a phase's budget, in the readings it needs plus 64
# Most readings a phase may need: its whole budget then has indices below
# 2**53, which float64 times hold exactly.
_MAX_NEED = 2**51
_BLOCK = 2**8  # noise values per draw_from call of one channel
# Relative widening of a noise pdf's support when ruling readings out, so
# that rounding in the support's endpoints cannot rule out a crossing.
_SUPPORT_MARGIN = 1e-6


@dataclass(frozen=True)
class TankConfig:
    """Scenario configuration.

    ``sensor_noise`` maps channel names (``level``, ``temp``, ``duration``,
    ``inlet``) to error distributions; missing channels are noiseless.
    ``cycles``, a run's length, is an int in [1, ``MAX_CYCLES``] (not a
    bool), so a run past the cap fails here, before any table is allocated.
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
        if not all(map(is_real, numbers)):
            raise ValueError("tank configuration values must be finite numbers")
        if not self.level_low < self.level_high:
            raise ValueError("level_low must be below level_high")
        if self.mix_duration <= 0:
            raise ValueError("mix_duration must be positive")
        if self.timestep <= 0:
            raise ValueError("timestep must be positive")
        if not is_count(self.cycles, MAX_CYCLES):
            raise ValueError(f"cycles must be an integer in [1, {MAX_CYCLES}]")
        for name, pdf in self.sensor_noise.items():
            if name not in _NOISE_CHANNELS:
                raise ValueError(f"unknown sensor noise channel {name!r}")
            if not isinstance(pdf, Pdf):
                raise ValueError(f"sensor noise channel {name!r} must be a Pdf")


def _reach(pdf, upward: bool) -> float:
    """The end of ``pdf``'s support toward an ``upward`` or downward crossing,
    moved out by ``_SUPPORT_MARGIN`` of its width; 0.0 for a ``pdf`` of None."""
    if pdf is None:
        return 0.0
    lo, hi = pdf._support
    pad = _SUPPORT_MARGIN * (hi - lo)
    return hi + pad if upward else lo - pad


def _noise(pdf, stream, c: int):
    """The values of noise channel ``c``, in order, from an iterator run in
    C: ``itertools.repeat(0.0)`` for a ``pdf`` of None, which opens no
    generator; else a chain of the lists of ``_BLOCK`` values that
    :func:`draw_from` draws from ``stream(c)``, opened at the first value."""
    if pdf is None:
        return itertools.repeat(0.0)

    def blocks():
        gen = stream(c)
        while True:
            yield draw_from(pdf, gen, _BLOCK).tolist()

    return itertools.chain.from_iterable(blocks())


def _cross(noise, reach, start, step, target, bias, upward, cycle, what):
    """True value at the first noisy reading across ``target``.

    Readings happen at t = 0, 1, 2, ...; the true value follows
    ``start + step * t`` (in closed form, so a noiseless trajectory has no
    accumulation error), approaching the target or standing still where
    ``step`` underflows to 0, and the transmitter reports
    ``true + noise - bias``, crossing at ``>= target`` if ``upward``, at
    ``<= target`` if not. Only a reading whose noiseless value moved by
    ``reach`` (the channel's :func:`_reach`) crosses can cross; it takes
    the next value of ``noise``, and any other reading takes none.

    That test is monotone in t, so the readings of the phase's budget that
    can cross run from the first to the budget's end. Two probes with no
    call settle the first: ``t = ceil((target + bias - reach - start) /
    step)``, clipped into [0, budget] (0 for a NaN guess or a zero step),
    is the first if reading t can cross and t - 1 cannot. Else ``bisect``
    searches the side they leave in at most ``budget.bit_length()`` tests,
    so the first is exact for any guess.

    From there the scan tests one reading at a time, usually a few, on
    Python floats: ``start + step * t - bias + noise`` in that order against
    ``float(target)``, so it stops where the per-reading reference does. A
    phase needing more than ``_MAX_NEED`` readings raises
    :class:`SimulationDivergence` as a size limit.
    """
    need, guess = 0.0, -math.inf  # for a zero step, where the test is constant
    if step != 0.0:
        need = max(0.0, (target - start) / step)
        guess = (target + bias - reach - start) / step
    if need + 64 > _MAX_NEED:  # also catches an infinite need
        raise SimulationDivergence(
            f"{what} needs more than 2**51 sensor readings "
            "(size limit; use a larger timestep)", cycle)
    budget = _PHASE_RETRIES * (int(need) + 64)

    # ``step * t`` for an int t below 2**53 is ``step * float(t)``.
    t = budget if guess >= budget else math.ceil(guess) if guess > 0 else 0
    lo, hi = 0, budget
    if t < hi:
        x = start + step * t - bias + reach
        if not (x >= target if upward else x <= target):
            lo = t + 1
    if lo < t:
        x = start + step * (t - 1) - bias + reach
        if x >= target if upward else x <= target:
            hi = t - 1
    if not lo <= t <= hi:
        def can(i):
            x = start + step * i - bias + reach
            return x >= target if upward else x <= target
        t = lo + bisect.bisect_left(range(lo, hi), True, key=can)

    goal = float(target)  # as the reference casts it to compare an array
    if upward:
        for t in range(t, budget):
            if start + step * t - bias + next(noise) >= goal:
                return float(start + step * t)
    else:
        for t in range(t, budget):
            if start + step * t - bias + next(noise) <= goal:
                return float(start + step * t)
    raise SimulationDivergence(f"{what} never crossed its setpoint", cycle)


# Once per call: draws of a noise pdf scaled near float64's limit overflow to
# inf without a warning, and a recorded value that is not finite is rejected.
@np.errstate(over="ignore", invalid="ignore")
def simulate(config: TankConfig, stream: Callable[[int], np.random.Generator]) -> np.ndarray:
    """Run ``config.cycles`` cycles; returns an (n, 3) array of achieved values.

    Columns: level at close of fill (m), temperature at mix start (degC),
    mixing duration (s). Noise channel c of ``_NOISE_CHANNELS`` reads the
    values of its generator ``stream(c)`` in order, and a noiseless channel
    reads zeros, through one :func:`_noise` iterator per channel, so given
    streams give one table and a shorter run is a prefix of a longer one.
    The phase steps and reaches (level pdf low side to drain, high side to
    fill, temperature pdf high side to heat) are computed once per run.
    Each controlled phase is one :func:`_cross` search, in which each
    reading that can cross takes one value of its channel; the inlet and
    duration channels take one value per cycle. A run opens at most one
    generator per noisy channel and holds ``_BLOCK`` values of each.

    Raises :class:`SimulationDivergence` (with the cycle index) when a
    controlled phase fails to cross its setpoint within a generous budget
    of sensor readings, at a drain that ends below 0 m (the tank cannot
    hold a negative level), at a fill that ends with an empty tank (a level
    of exactly 0, where the blend has no mass), or at the first cycle whose
    recorded level, temperature or duration is not finite.
    """
    dt = config.timestep
    pdfs = [config.sensor_noise.get(name) for name in _NOISE_CHANNELS]
    lvl, tmp, dur, inl = (_noise(pdf, stream, c) for c, pdf in enumerate(pdfs))
    drain_step, fill_step, heat_step = -DRAIN_RATE * dt, FILL_RATE * dt, HEAT_RATE * dt
    drain_reach, fill_reach = _reach(pdfs[0], False), _reach(pdfs[0], True)
    heat_reach = _reach(pdfs[1], True)

    out = np.empty((config.cycles, 3), dtype=np.float64)
    temp = config.temp_setpoint
    level = config.level_high
    prev_heat = 0.0  # degC added by the heater in the previous cycle
    prev_run = 0.0  # mixer runtime in the previous cycle, s

    for k in range(config.cycles):
        drift = (
            config.heater_to_level * prev_heat * LEVEL_DRIFT_PER_DEGC
            + config.mixer_to_level * (prev_run / MIX_REF) * LEVEL_DRIFT_PER_RUN
        )

        # Drain until the transmitter reads the low setpoint.
        low = _cross(lvl, drain_reach, level, drain_step, config.level_low,
                     drift, False, k, "drain level")
        if low < 0.0:
            raise SimulationDivergence("drain ran the tank below empty", k)

        # Fill until the transmitter reads the high setpoint; the inlet
        # stream blends with the residue (exact mass-weighted mixing, the
        # telescoped form of per-step Euler blending).
        achieved_level = _cross(lvl, fill_reach, low, fill_step,
                                config.level_high, drift, True, k, "fill level")
        if achieved_level == 0.0:
            raise SimulationDivergence("fill ended with an empty tank", k)
        t_in = INLET_TEMP + next(inl)
        t_blend = t_in + low * (temp - t_in) / achieved_level

        # Heat to the setpoint. The thermostat cuts at the setpoint exactly
        # and never cools; a noisy reading can stop it early (below the
        # setpoint) or skip it entirely when the blend arrives already hot.
        if t_blend >= config.temp_setpoint:
            achieved_temp = t_blend
        else:
            stopped = _cross(tmp, heat_reach, t_blend, heat_step,
                             config.temp_setpoint, 0.0, True, k, "heater temperature")
            achieved_temp = max(t_blend, min(stopped, config.temp_setpoint))
        heat_added = achieved_temp - t_blend

        # Timed mix; agitation heat stays in the batch for the next cycle.
        run = max(0.0, config.mix_duration + next(dur))

        # A runaway run stops before an inf or nan reaches the next cycle.
        if not (-_FLOAT_MAX <= achieved_level <= _FLOAT_MAX
                and -_FLOAT_MAX <= achieved_temp <= _FLOAT_MAX
                and -_FLOAT_MAX <= run <= _FLOAT_MAX):
            raise SimulationDivergence(
                f"recorded level, temperature and duration ({achieved_level:g}, "
                f"{achieved_temp:g}, {run:g}) are not all finite", k)
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
    for finite-difference influence estimation. A drain that leaves less
    than 0 m raises ValueError, as :func:`simulate` refuses it.
    """
    dps = float64_array(dps)
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
        if start < 0.0:
            raise ValueError(f"the drain leaves {start:g} m, below an empty tank")
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
