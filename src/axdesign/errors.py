"""Exception types shared across the package."""

from __future__ import annotations

__all__ = ["SpecFormatError", "SimulationDivergence", "NonFiniteSamples"]


class SpecFormatError(ValueError):
    """A design-spec document could not be parsed.

    Raised for both JSON syntax errors (``where`` reports line/column) and
    schema violations (``where`` reports the offending field path).
    """

    def __init__(self, message: str, where: str | None = None):
        self.where = where
        super().__init__(f"{where}: {message}" if where else message)


class SimulationDivergence(RuntimeError):
    """A simulated cycle failed: a setpoint never reached, or a value not finite."""

    def __init__(self, message: str, cycle: int):
        self.cycle = cycle
        super().__init__(f"cycle {cycle}: {message}")


class NonFiniteSamples(ValueError):
    """A Monte Carlo sample table holds an inf or nan value (for a linear
    model, its finite inputs overflow float64)."""
