"""
Reading a design matrix: uncoupled, decoupled, coupled
======================================================

The design matrix says which knobs (DPs) move which requirements (FRs).
Its zero pattern decides how painful tuning will be:

  * uncoupled  -- one knob per requirement; adjust in any order
  * decoupled  -- a triangular pattern; adjust in the right order and
                  each knob disturbs only requirements already behind you
  * coupled    -- a cycle of mutual influence; iterate and hope

Run from the repo root after `pip install -e .`:

    python3 demos/classify_designs.py
"""

import json
from pathlib import Path

import numpy as np

from axdesign import Coupled, Decoupled, Uncoupled, affected_frs, classify, parse_spec, sequence

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"


def load(name):
    return parse_spec((FIXTURES / name).read_text())


def show(title, classification, fr_ids, dp_ids):
    print(f"{title}: {type(classification).__name__.lower()}")
    if isinstance(classification, (Uncoupled, Decoupled)):
        steps = " -> ".join(
            f"{dp_ids[dp]}=>{fr_ids[fr]}" for fr, dp in sequence(classification)
        )
        print(f"  adjustment sequence: {steps}")
    elif isinstance(classification, Coupled):
        for block in classification.blocks:
            members = ", ".join(fr_ids[fr] for fr, _ in block)
            print(f"  coupled block: [{members}]")
    print()


# ---------------------------------------------------------------------------
# 1. The two-knob faucet vs the single-lever mixer tap
# ---------------------------------------------------------------------------
# Classic pair.  Separate hot/cold knobs both change flow AND temperature:
# a full matrix, hopelessly coupled.  A mixer-tap lever splits the two jobs
# onto independent axes: diagonal matrix, uncoupled.

for name in ("faucet_two_knob.json", "faucet_mixer_tap.json"):
    spec = load(name)
    cls = classify(spec.matrix)
    show(name, cls, [fr.id for fr in spec.frs], [dp.id for dp in spec.dps])

# ---------------------------------------------------------------------------
# 2. A machining line that references earlier features
# ---------------------------------------------------------------------------
# Each station locates off features cut by earlier stations -- a lower
# triangular matrix.  Decoupled: shim station 1 first, then 2, then 3.

spec = load("machining_cascade.json")
cls = classify(spec.matrix)
show("machining_cascade.json", cls, [fr.id for fr in spec.frs], [dp.id for dp in spec.dps])

# A wrong-order tweak really does bite here: touching fixture1_shim moves
# every downstream station, touching fixture3_shim moves only its own.
m = spec.matrix
print("ripple from each shim (affected FR indices):")
for dp_index, dp in enumerate(spec.dps):
    print(f"  {dp.id}: {sorted(affected_frs(m, dp_index))}")
print()

# ---------------------------------------------------------------------------
# 3. Near-zero entries and the epsilon threshold
# ---------------------------------------------------------------------------
# Real matrices come from regression or finite differences and carry noise.
# classify() treats |entry| <= epsilon as zero, so you can ask "what if I
# ignore influences below 1e-3?" without editing the matrix.

noisy = np.array(
    [
        [1.0, 2e-4, 0.0],
        [0.4, 1.0, 1e-5],
        [0.0, 0.3, 1.0],
    ]
)
strict = classify(noisy)                # every nonzero counts
relaxed = classify(noisy, epsilon=1e-3)  # small spill-over forgiven
print(f"noisy matrix, epsilon=0:    {type(strict).__name__.lower()}")
print(f"noisy matrix, epsilon=1e-3: {type(relaxed).__name__.lower()}")
print()

# ---------------------------------------------------------------------------
# 4. When the question does not even parse
# ---------------------------------------------------------------------------
# Two requirements served by one knob is not coupled -- it is degenerate.
# There is no assignment of knobs to requirements to talk about.

spec = load("scheduling.json")
cls = classify(spec.matrix)
print(f"scheduling.json: {type(cls).__name__.lower()} ({cls.reason.value})")
print(f"  its matrix is {json.dumps(spec.matrix.tolist())} -- 2 FRs, 1 DP")
