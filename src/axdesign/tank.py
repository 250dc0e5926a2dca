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

from .distributions import Pdf, RngState, Substreams, draw_from
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
_PHASE_RETRIES = 4  # chunks of sensor readings searched before divergence
# Most readings a search chunk may hold: the phase's whole budget then has
# indices below 2**53, which float64 times hold exactly.
_MAX_CHUNK = 2**51
_SLICE = 2**20  # sensor readings drawn and tested per array
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
        if not (isinstance(self.cycles, int) and 1 <= self.cycles <= MAX_CYCLES):
            raise ValueError(f"cycles must be an integer in [1, {MAX_CYCLES}]")
        for name, pdf in self.sensor_noise.items():
            if name not in _NOISE_CHANNELS:
                raise ValueError(f"unknown sensor noise channel {name!r}")
            if not isinstance(pdf, Pdf):
                raise ValueError(f"sensor noise channel {name!r} must be a Pdf")


def _first(can, lo: int, hi: int, guess: float) -> int:
    """The first ``t`` in [lo, hi) with ``can(t)``, or ``hi`` if none; ``can``
    must be non-decreasing in ``t``.

    The search gallops (Bentley & Yao, IPL 1976) from ``ceil(guess)``
    clipped into [lo, hi], a NaN guess counting as ``lo``, by steps of 1, 2,
    4, ... until it brackets the answer, then bisects the bracket. It is
    exact for every guess, and costs two ``can`` calls when ``ceil(guess)``
    is the answer, O(log error) calls otherwise. A non-increasing ``can`` is
    found exactly too when the guess is at most ``lo``: ``lo`` if
    ``can(lo)``, else ``hi``.
    """
    if guess >= hi:
        t = hi
    elif guess > lo:  # finite
        t = math.ceil(guess)
    else:
        t = lo
    # The loops keep ``below < answer <= above``, with ``can(below)`` false or
    # ``below == lo - 1``, and ``can(above)`` true or ``above == hi``.
    step = 1
    if t < hi and not can(t):
        below, above = t, hi
        while below + step < hi:
            if can(below + step):
                above = below + step
                break
            below += step
            step *= 2
    else:
        below, above = lo - 1, t
        while above - step >= lo:
            if not can(above - step):
                below = above - step
                break
            above -= step
            step *= 2
    while above - below > 1:
        mid = (below + above) // 2
        if can(mid):
            above = mid
        else:
            below = mid
    return above


def _cross(stream, pdf, start, step, target, bias, upward, cycle, what):
    """True value at the first noisy reading across ``target``.

    Readings happen at t = 0, 1, 2, ...; the true value follows
    ``start + step * t`` (computed in closed form so a noiseless trajectory
    has no accumulation error) and the transmitter reports
    ``true + noise - bias``.

    Readings are searched in chunks, one noise draw per reading from the
    seated ``stream`` (a :class:`Substreams`). A reading can cross only if
    its noiseless value, moved by the most extreme value ``pdf`` can
    return, crosses. While the trajectory approaches the target that test
    is non-decreasing in t, and the closed form
    ``(target + bias - reach - start) / step`` puts its first true reading
    within rounding, so :func:`_first` gallops from there, on scalars (the
    same float operations as on an array), and usually tests two readings.
    A level or receding trajectory can cross only from the chunk's first
    reading on, so its search starts there. ``stream.skip`` passes over
    the values of the earlier readings, the rest are drawn and tested
    ``_SLICE`` at a time, and after a hit the rest of the chunk is skipped.
    The skips are bookkeeping, so the stream is reseated at most once per
    search, at its first draw. This leaves the stream and every drawn value
    as if the whole chunk had been drawn, in bounded memory. A phase needing
    more than ``_MAX_CHUNK`` readings per chunk raises
    :class:`SimulationDivergence` as a size limit.
    """
    if step != 0.0:
        need = max(0.0, (target - start) / step)
    else:
        need = 0.0
    if need + 64 > _MAX_CHUNK:  # also catches an infinite need
        raise SimulationDivergence(
            f"{what} needs more than 2**51 sensor readings per search chunk "
            "(size limit; use a larger timestep)", cycle)
    chunk = int(need) + 64
    reach = 0.0
    if pdf is not None:
        lo, hi = pdf._support
        pad = _SUPPORT_MARGIN * (hi - lo)
        reach = hi + pad if upward else lo - pad
    # ``step * t`` for an int t below 2**53 is ``step * float(t)``.
    if upward:
        def can(t):
            return start + step * t - bias + reach >= target
        crossed = np.greater_equal
    else:
        def can(t):
            return start + step * t - bias + reach <= target
        crossed = np.less_equal
    approaching = step > 0.0 if upward else step < 0.0
    if approaching:
        guess = (target + bias - reach - start) / step
    else:  # ``can`` is non-increasing or constant
        guess = -math.inf
    for t0 in range(0, _PHASE_RETRIES * chunk, chunk):
        end = t0 + chunk
        i0 = _first(can, t0, end, guess)
        if pdf is None:  # with no noise the first reading that can cross does
            if i0 < end:
                return float(start + step * i0)
            continue
        stream.skip(i0 - t0)
        for s0 in range(i0, end, _SLICE):
            s1 = min(s0 + _SLICE, end)
            # start + step * t - bias + noise, in one buffer
            measured = np.arange(s0, s1, dtype=np.float64)
            measured *= step
            measured += start
            measured -= bias
            measured += draw_from(pdf, stream, s1 - s0)
            hits = crossed(measured, target)
            i = int(hits.argmax())
            if hits[i]:
                stream.skip(end - s1)
                return float(start + step * (s0 + i))
    raise SimulationDivergence(f"{what} never crossed its setpoint", cycle)


def simulate(config: TankConfig, rng: RngState, cycles: int | None = None) -> np.ndarray:
    """Run the cycle simulation; returns an (n, 3) array of achieved values.

    Columns: level at close of fill (m), temperature at mix start (degC),
    mixing duration (s). Cycle k draws from substream k of ``rng``, so
    results are reproducible from the seed regardless of batching. All
    cycles run on one :class:`Substreams` generator, seated at the start of
    substream k for cycle k, which yields exactly the values of
    ``rng.substream(k).generator()``; the crossing search skips the values
    of readings that cannot cross, and the one-value inlet and duration
    reads transform a single ``random()`` float. Seats and skips are
    bookkeeping, so a noisy crossing search costs at most one state
    assignment, made at its first draw, and a noiseless cycle none.

    Raises ``ValueError`` for a cycle count outside [1, ``MAX_CYCLES``],
    before allocating the table, and :class:`SimulationDivergence` (with the
    cycle index) when a controlled phase fails to cross its setpoint within
    a generous budget of sensor readings.
    """
    n = config.cycles if cycles is None else cycles
    if not 1 <= n <= MAX_CYCLES:
        raise ValueError(f"cycle count must be in [1, {MAX_CYCLES}]")
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

    stream = Substreams(rng)
    for k in range(n):
        stream.seat(k)
        drift = (
            config.heater_to_level * prev_heat * LEVEL_DRIFT_PER_DEGC
            + config.mixer_to_level * (prev_run / MIX_REF) * LEVEL_DRIFT_PER_RUN
        )

        # Drain until the transmitter reads the low setpoint.
        low = _cross(stream, lvl_pdf, level, -DRAIN_RATE * dt, config.level_low,
                     drift, False, k, "drain level")

        # Fill until the transmitter reads the high setpoint; the inlet
        # stream blends with the residue (exact mass-weighted mixing, the
        # telescoped form of per-step Euler blending).
        achieved_level = _cross(stream, lvl_pdf, low, FILL_RATE * dt,
                                config.level_high, drift, True, k, "fill level")
        t_in = INLET_TEMP
        if inl_pdf is not None:
            t_in += float(inl_pdf._transform(stream.random()))
        t_blend = t_in + low * (temp - t_in) / achieved_level

        # Heat to the setpoint. The thermostat cuts at the setpoint exactly
        # and never cools; a noisy reading can stop it early (below the
        # setpoint) or skip it entirely when the blend arrives already hot.
        if t_blend >= config.temp_setpoint:
            achieved_temp = t_blend
        else:
            stopped = _cross(stream, tmp_pdf, t_blend, HEAT_RATE * dt,
                             config.temp_setpoint, 0.0, True, k, "heater temperature")
            achieved_temp = max(t_blend, min(stopped, config.temp_setpoint))
        heat_added = achieved_temp - t_blend

        # Timed mix; agitation heat stays in the batch for the next cycle.
        run = config.mix_duration
        if dur_pdf is not None:
            run = max(0.0, run + float(dur_pdf._transform(stream.random())))

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
