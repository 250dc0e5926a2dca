"""Benchmark of the axdesign classify / bits / tank pipeline.

Run ``python3 perfbench/run.py --help``; see ``perfbench/README.md``.
"""

WORKLOADS = ("mc-info", "tank-sim", "classify-scale", "spec-review")
