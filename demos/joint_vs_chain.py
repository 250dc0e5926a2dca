"""
When multiplying marginals lies to you
======================================

For independent requirements the system success probability is just the
product of the per-requirement ones.  The moment two requirements ride
on the same knob that shortcut breaks -- sometimes optimistically,
sometimes pessimistically -- and you need the joint probability from a
shared set of samples.

Run from the repo root after `pip install -e .`:

    python3 demos/joint_vs_chain.py
"""

from pathlib import Path

from axdesign import (
    LinearModel,
    McConfig,
    classify,
    conditional_chain_information,
    fr_information,
    parse_spec,
    sequence,
    system_information_joint,
)

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"
MC = McConfig(seed=42, n_samples=200_000)


# ---------------------------------------------------------------------------
# 1. The two-knob faucet: both FRs ride both knobs
# ---------------------------------------------------------------------------
spec = parse_spec((FIXTURES / "faucet_two_knob.json").read_text())
model = LinearModel(spec.matrix, [dp.uncertainty for dp in spec.dps])

# Marginals first, from the fitted per-FR output distributions.
marginal_product = 1.0
for fr in spec.frs:
    res = fr_information(spec.system_pdfs[fr.id], fr.design_range)
    marginal_product *= res.probability
    print(f"  {fr.id}: marginal P = {res.probability:.4f}")

joint = system_information_joint(model, spec.frs, mc=MC)
print(f"  product of marginals : {marginal_product:.4f}")
print(f"  joint (shared knobs) : {joint.system_probability:.4f}"
      f"  (+/- {3 * joint.mc.std_error:.4f} at 3 sigma)")
print(f"  joint bits           : {joint.system_bits:.4f}")
print()
# The product says 0.56; the truth is 0.50.  Opening the hot valve to fix
# flow also drags the temperature, so the two misses are correlated and
# multiplying marginals overstates your chances.

# ---------------------------------------------------------------------------
# 2. The machining cascade: a decoupled chain, link by link
# ---------------------------------------------------------------------------
# For a triangular design you can walk the adjustment sequence and ask at
# each step: given every earlier station already landed in its band, what
# is the chance this one does too?  Those conditional probabilities
# multiply back to exactly the joint -- same samples, same answer -- but
# the per-link bits tell you where the difficulty actually lives.

spec = parse_spec((FIXTURES / "machining_cascade.json").read_text())
model = LinearModel(spec.matrix, [dp.uncertainty for dp in spec.dps])
order = [fr for fr, _ in sequence(classify(spec.matrix))]

joint = system_information_joint(model, spec.frs, mc=MC)
chain = conditional_chain_information(model, order, spec.frs, mc=MC)

print("machining cascade, conditional chain:")
for fr, link in zip(chain.frs, chain.per_fr):
    print(f"  {fr.id}: P(in band | upstream ok) = {link.probability:.4f}"
          f"  -> {link.bits:.4f} bits")
print(f"  chain total : P = {chain.system_probability:.6f}, bits = {chain.system_bits:.4f}")
print(f"  joint check : P = {joint.system_probability:.6f}, bits = {joint.system_bits:.4f}")
assert chain.system_probability == joint.system_probability  # same seed, same samples
