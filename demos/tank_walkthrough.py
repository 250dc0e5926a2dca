"""
From a running process to an information budget
===============================================

The other demos start from known distributions.  This one starts from a
simulator -- a batch tank that fills, heats, and mixes every cycle --
and works backwards to the same quantities:

    simulate  ->  sample table  ->  bits per requirement
    probe     ->  design matrix ->  coupling class

The interesting knob is `mixer_to_temp`: friction from a long mix run
heats the liquid.  At zero the three control loops mind their own
business; as it grows, the mixer reaches into the temperature loop and
the information cost climbs.

Run from the repo root after `pip install -e .`:

    python3 demos/tank_walkthrough.py
"""

import dataclasses
from pathlib import Path

from axdesign import (
    RngState,
    ScenarioModel,
    classify,
    estimate_design_matrix,
    parse_spec,
    simulate_tank,
    system_information_from_samples,
    tank_response,
)

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"

spec = parse_spec((FIXTURES / "tank.json").read_text())
config = spec.scenario

# ---------------------------------------------------------------------------
# 1. Sanity: where does one quiet batch land?
# ---------------------------------------------------------------------------
# tank_response() runs the deterministic plant at given setpoints.  At the
# nominal setpoints it should reproduce them -- the loops are regulators.

nominal = [config.level_high, config.temp_setpoint, config.mix_duration]
print("deterministic response at nominal setpoints:", tank_response(config, nominal))
print()

# ---------------------------------------------------------------------------
# 2. Simulate and score
# ---------------------------------------------------------------------------
# 10000 noisy batches, then count how often each reading stayed inside its
# acceptance band.  With zero cross-gains the sensor noise is small enough
# that essentially every batch passes: the budget is ~0 bits.

rng = RngState(seed=11)
table = simulate_tank(config, rng)
report = system_information_from_samples(table.values, spec.frs, seed=11)
print(f"baseline run ({table.n} cycles):")
for fr, res in zip(report.frs, report.per_fr):
    print(f"  {fr.id}: P = {res.probability:.4f}, bits = {res.bits:.4f}")
print(f"  system: P = {report.system_probability:.4f}, "
      f"bits = {report.system_bits:.4f}")
print()

# ---------------------------------------------------------------------------
# 3. Turn up the coupling
# ---------------------------------------------------------------------------
print("sweep of mixer_to_temp (mixer friction heating the liquid):")
print(f"  {'gain':>6}  {'P(all in band)':>14}  {'system bits':>11}")
for gain in (0.0, 0.05, 0.1, 0.2):
    cfg = dataclasses.replace(config, mixer_to_temp=gain)
    table = simulate_tank(cfg, RngState(seed=11))
    rep = system_information_from_samples(table.values, spec.frs, seed=11)
    print(f"  {gain:>6g}  {rep.system_probability:>14.4f}  {rep.system_bits:>11.4f}")
print()
# At 0.1 the steady temperature creeps to ~65.8 degC -- outside the
# +/-0.5 band -- so P collapses and the bits blow up.  Nothing about the
# temperature loop itself changed; the cost came from the coupling.

# ---------------------------------------------------------------------------
# 4. Recover the design matrix you never wrote down
# ---------------------------------------------------------------------------
# Treat the simulator as a black box from setpoints to readings and
# finite-difference it.  The zero pattern of the probed matrix is the
# coupling story told numerically.

for gain in (0.0, 0.1):
    cfg = dataclasses.replace(config, mixer_to_temp=gain)
    probed = estimate_design_matrix(ScenarioModel(cfg), nominal, step=1e-3)
    kind = type(classify(probed, epsilon=1e-6)).__name__.lower()
    print(f"mixer_to_temp={gain}: probed matrix -> {kind}")
    for fr, row in zip(spec.frs, probed):
        cells = "  ".join(f"{v:>8.4f}" for v in row)
        print(f"  {fr.id:>12}  [{cells}]")
