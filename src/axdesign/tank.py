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
import operator
from dataclasses import dataclass, field

import numpy as np

from .distributions import (_FLOAT_MAX, Pdf, RngState, draw_from, float64_array,
                            is_count, is_real)
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


def _first(can, lo: int, hi: int, guess: float) -> int:
    """The first ``t`` in [lo, hi) with ``can(t)``, or ``hi`` if none; ``can``
    must be non-decreasing in ``t``.

    Two probes settle ``t = ceil(guess)``, clipped into [lo, hi] with a NaN
    guess counting as ``lo``: it is the answer if ``can(t)`` and not
    ``can(t - 1)``. Otherwise ``bisect`` searches the side of ``t`` the
    probes leave, in at most ``(hi - lo).bit_length()`` more calls, so the
    search is exact for every guess. A non-increasing ``can`` is found
    exactly too when the guess is at most ``lo``: ``lo`` if ``can(lo)``,
    else ``hi``.
    """
    if guess >= hi:
        t = hi
    elif guess > lo:  # finite
        t = math.ceil(guess)
    else:
        t = lo
    if t < hi and not can(t):
        lo = t + 1
    elif t > lo and can(t - 1):
        hi = t - 1
    else:
        return t
    return lo + bisect.bisect_left(range(lo, hi), True, key=can)


def _noise(pdf, rng: RngState):
    """The values of one noise channel, in order: zeros, and no generator,
    for a ``pdf`` of None; else the stream of ``rng.generator()``, built at
    the first value and drawn ``_BLOCK`` values per :func:`draw_from` call."""
    if pdf is None:
        yield from itertools.repeat(0.0)
    gen = rng.generator()
    while True:
        yield from draw_from(pdf, gen, _BLOCK).tolist()


def _cross(noise, pdf, start, step, target, bias, upward, cycle, what):
    """True value at the first noisy reading across ``target``.

    Readings happen at t = 0, 1, 2, ...; the true value follows
    ``start + step * t`` (computed in closed form so a noiseless trajectory
    has no accumulation error) and the transmitter reports
    ``true + noise - bias``. The trajectory approaches the target, or
    stands still where ``step`` underflows to 0.

    A reading can cross only if its noiseless value, moved by the most
    extreme value ``pdf`` can return (0 for a noiseless ``pdf`` of None),
    crosses; each reading that can cross takes the next value of the
    ``noise`` iterator, and a reading that cannot takes none. That test is
    monotone in t, so the readings of the phase's budget that can cross run
    from the first, which one :func:`_first` search finds from the closed
    form ``(target + bias - reach - start) / step`` (from 0 for a zero
    step), to the budget's end.

    That run is tested one reading at a time, on Python floats, up to its
    first crossing, which usually comes within a few readings (at once
    without noise); a window of thousands of readings that crosses far in
    (a cold inlet, a fine timestep) costs a few float operations per
    reading. The scan computes ``start + step * t - bias + noise`` in that
    order, each operation rounded to float64, and compares with
    ``float(target)``, so it stops at the reading the per-reading reference
    does. A phase needing more than ``_MAX_NEED`` readings raises
    :class:`SimulationDivergence` as a size limit.
    """
    reach = 0.0
    if pdf is not None:
        lo, hi = pdf._support
        pad = _SUPPORT_MARGIN * (hi - lo)
        reach = hi + pad if upward else lo - pad
    need, guess = 0.0, -math.inf  # for a zero step, where ``can`` is constant
    if step != 0.0:
        need = max(0.0, (target - start) / step)
        guess = (target + bias - reach - start) / step
    if need + 64 > _MAX_NEED:  # also catches an infinite need
        raise SimulationDivergence(
            f"{what} needs more than 2**51 sensor readings "
            "(size limit; use a larger timestep)", cycle)
    budget = _PHASE_RETRIES * (int(need) + 64)
    crossed = operator.ge if upward else operator.le

    # ``step * t`` for an int t below 2**53 is ``step * float(t)``.
    def can(t):
        return crossed(start + step * t - bias + reach, target)

    goal = float(target)  # as the reference casts it to compare an array
    for t in range(_first(can, 0, budget, guess), budget):
        if crossed(start + step * t - bias + next(noise), goal):
            return float(start + step * t)
    raise SimulationDivergence(f"{what} never crossed its setpoint", cycle)


# Once per call: draws of a noise pdf scaled near float64's limit overflow to
# inf without a warning, and a recorded value that is not finite is rejected.
@np.errstate(over="ignore", invalid="ignore")
def simulate(config: TankConfig, rng: RngState, cycles: int | None = None) -> np.ndarray:
    """Run the cycle simulation; returns an (n, 3) array of achieved values.

    Columns: level at close of fill (m), temperature at mix start (degC),
    mixing duration (s). Noise channel c of ``_NOISE_CHANNELS`` reads the
    values of ``rng.substream(c).generator()`` in order, and a noiseless
    channel reads zeros, through one :func:`_noise` iterator per channel,
    so a given seed gives one table and a shorter run is a prefix of a
    longer one. Each controlled phase is one :func:`_cross` search, in
    which each sensor reading that can cross its setpoint takes one value
    of its channel, and the inlet and duration channels take one value per
    cycle. A run builds at most one generator per noisy channel, none for
    a noiseless one, and holds at most ``_BLOCK`` drawn values per channel.

    Raises ``ValueError``, before allocating the table, for a cycle count
    that is not an int in [1, ``MAX_CYCLES``] (a bool is not), and
    :class:`SimulationDivergence` (with the cycle index) when a controlled
    phase fails to cross its setpoint within a generous budget of sensor
    readings, or at the first cycle whose recorded level, temperature or
    duration is not finite.
    """
    n = config.cycles if cycles is None else cycles
    if not is_count(n, MAX_CYCLES):
        raise ValueError(f"cycle count must be in [1, {MAX_CYCLES}]")
    dt = config.timestep
    pdfs = [config.sensor_noise.get(name) for name in _NOISE_CHANNELS]
    lvl_pdf, tmp_pdf = pdfs[:2]
    lvl, tmp, dur, inl = (_noise(pdf, rng.substream(c)) for c, pdf in enumerate(pdfs))

    out = np.empty((n, 3), dtype=np.float64)
    temp = config.temp_setpoint
    level = config.level_high
    prev_heat = 0.0  # degC added by the heater in the previous cycle
    prev_run = 0.0  # mixer runtime in the previous cycle, s

    for k in range(n):
        drift = (
            config.heater_to_level * prev_heat * LEVEL_DRIFT_PER_DEGC
            + config.mixer_to_level * (prev_run / MIX_REF) * LEVEL_DRIFT_PER_RUN
        )

        # Drain until the transmitter reads the low setpoint.
        low = _cross(lvl, lvl_pdf, level, -DRAIN_RATE * dt, config.level_low,
                     drift, False, k, "drain level")

        # Fill until the transmitter reads the high setpoint; the inlet
        # stream blends with the residue (exact mass-weighted mixing, the
        # telescoped form of per-step Euler blending).
        achieved_level = _cross(lvl, lvl_pdf, low, FILL_RATE * dt,
                                config.level_high, drift, True, k, "fill level")
        t_in = INLET_TEMP + next(inl)
        t_blend = t_in + low * (temp - t_in) / achieved_level

        # Heat to the setpoint. The thermostat cuts at the setpoint exactly
        # and never cools; a noisy reading can stop it early (below the
        # setpoint) or skip it entirely when the blend arrives already hot.
        if t_blend >= config.temp_setpoint:
            achieved_temp = t_blend
        else:
            stopped = _cross(tmp, tmp_pdf, t_blend, HEAT_RATE * dt,
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
    for finite-difference influence estimation.
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
