"""Shared test helpers: fixture-file locations and loaders, FRs built from
plain bounds, the hypothesis profile for CI runs, and a fixture that sets
the CPU count of the Monte Carlo routes."""

from __future__ import annotations

import os
from pathlib import Path

import pytest
from hypothesis import settings

from axdesign import DesignRange, DesignSpec, info, parse_spec
from axdesign.model import FunctionalRequirement, range_bounds

# Under CI a failing property prints the @reproduce_failure blob that
# replays it locally, and no example fails for running slow on a busy runner.
settings.register_profile("ci", print_blob=True, deadline=None)
if os.environ.get("CI"):
    settings.load_profile("ci")

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def fixture_path(name: str) -> Path:
    path = FIXTURES / name
    if not path.is_file():
        raise FileNotFoundError(f"missing fixture file: {path}")
    return path


def load_spec(name: str) -> DesignSpec:
    return parse_spec(fixture_path(name).read_text())


def make_frs(*bounds, ids=None) -> tuple[FunctionalRequirement, ...]:
    """One FR per ``(lo, hi)`` pair, with ids ``ids`` or x0, x1, ...; each
    range is centred between its bounds, which must come out exactly."""
    ids = ids or [f"x{i}" for i in range(len(bounds))]
    frs = []
    for fr_id, (lo, hi) in zip(ids, bounds, strict=True):
        half = (hi - lo) / 2
        design_range = DesignRange(lo + half, half, half)
        assert range_bounds(design_range) == (lo, hi), (lo, hi)
        frs.append(FunctionalRequirement(fr_id, design_range))
    return tuple(frs)


@pytest.fixture
def set_cpus(monkeypatch):
    """Set the CPU count that the Monte Carlo routes split runs by."""
    return lambda cpus: monkeypatch.setattr(info, "_CPUS", cpus)
