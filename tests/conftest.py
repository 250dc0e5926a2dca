"""Shared test helpers: fixture-file locations and loaders, the hypothesis
profile for CI runs, and a fixture that sets the CPU count of the Monte
Carlo routes."""

from __future__ import annotations

import os
from pathlib import Path

import pytest
from hypothesis import settings

from axdesign import DesignSpec, info, parse_spec

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


@pytest.fixture
def set_cpus(monkeypatch):
    """Set the CPU count that the Monte Carlo routes split runs by."""
    return lambda cpus: monkeypatch.setattr(info, "_CPUS", cpus)
