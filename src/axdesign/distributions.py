"""Probability models and reproducible sampling.

Four distribution families are supported: uniform, normal, triangular and
empirical (resampling from stored observations). Every family exposes an
exact CDF and interval probabilities computed as CDF differences, so
interval masses are additive and total mass is 1 to within floating point.

Random number generation
------------------------
There is one way to sample::

    draw_from(pdf, RngState(seed).substream(k).generator(), n)

:class:`RngState` is an explicit immutable value (root seed and substream
path). Its generator is the counter-based Philox 4x64 algorithm keyed by
numpy's ``SeedSequence`` with the substream path as spawn key, so any result
can be reproduced from the seed alone, and substreams derived with
:meth:`RngState.substream` are independent of the order in which they are
consumed. Successive draws from one generator continue its stream; a caller
that needs an independent, reproducible stream derives another substream.

Every family consumes exactly one ``gen.random()`` value per draw, so ``n``
draws advance the stream by ``n`` values whatever the family, and a caller
that does not need the next ``k`` draws skips them with ``gen.random(k)``:
the draws after the skip are those a single call would have returned.

* Uniform scales ``gen.random()`` onto [lo, hi).
* Normal and triangular variates are generated by the inverse-CDF method:
  each ``gen.random()`` value k / 2**53 becomes the open uniform
  (k + 0.5) / 2**53, clamped to 1 - 2**-53 for the top k, where the sum
  rounds up to 1.0. This choice is fixed for the package, so a given seed
  always yields the same samples.
* Empirical picks observation ``floor(gen.random() * n_obs)`` of the sorted
  observations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.random import Generator, Philox, SeedSequence
from scipy.special import ndtr, ndtri

__all__ = [
    "RngState",
    "Pdf",
    "Uniform",
    "Normal",
    "Triangular",
    "Empirical",
    "from_samples",
    "draw_from",
]

# Extremes of the open uniform (k + 0.5) / 2**53: k = 0, and the top k
# clamped, which is also the largest ``gen.random()`` value.
_U_LO = 2.0**-54
_U_HI = 1.0 - 2.0**-53


@dataclass(frozen=True)
class RngState:
    """Serializable random generator state.

    Attributes
    ----------
    seed : int
        Root seed, non-negative.
    stream : tuple of int
        Substream derivation path (SeedSequence spawn key).
    """

    seed: int
    stream: tuple[int, ...] = ()

    def __post_init__(self):
        if not isinstance(self.seed, int) or self.seed < 0:
            raise ValueError("seed must be a non-negative integer")

    def substream(self, key: int) -> "RngState":
        """Derive the independent substream identified by ``key``."""
        if not isinstance(key, int) or key < 0:
            raise ValueError("substream key must be a non-negative integer")
        return RngState(self.seed, self.stream + (key,))

    def generator(self) -> Generator:
        """Fresh numpy Generator at the start of this substream."""
        return Generator(Philox(SeedSequence(self.seed, spawn_key=self.stream)))


def _open_uniform(gen: Generator, n: int) -> np.ndarray:
    """Uniforms strictly inside (0, 1), safe for inverse-CDF transforms.

    One ``gen.random()`` value each, shifted by half a grid step.
    """
    u = gen.random(n)
    u += _U_LO
    return np.minimum(u, _U_HI, out=u)


class Pdf:
    """Base class for probability models."""

    def cdf(self, x):
        raise NotImplementedError

    def interval_probability(self, lo: float, hi: float) -> float:
        """Probability mass on [lo, hi], computed as cdf(hi) - cdf(lo)."""
        if lo > hi:
            raise ValueError(f"interval lower bound {lo} exceeds upper bound {hi}")
        return float(self.cdf(hi)) - float(self.cdf(lo))

    def _draw(self, gen: Generator, n: int) -> np.ndarray:
        raise NotImplementedError

    @property
    def _support(self) -> tuple[float, float]:
        """(lo, hi) holding every value ``_draw`` can return."""
        raise NotImplementedError

    def describe(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class Uniform(Pdf):
    """Uniform distribution on [lo, hi)."""

    lo: float
    hi: float

    def __post_init__(self):
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValueError("uniform bounds must be finite")
        if not self.lo < self.hi:
            raise ValueError(f"uniform requires lo < hi, got [{self.lo}, {self.hi}]")

    def cdf(self, x):
        x = np.asarray(x, dtype=np.float64)
        t = (x - self.lo) / (self.hi - self.lo)
        return np.clip(t, 0.0, 1.0)[()]

    def _draw(self, gen, n):
        return self.lo + gen.random(n) * (self.hi - self.lo)

    @cached_property
    def _support(self):
        return self.lo, self.lo + _U_HI * (self.hi - self.lo)

    def describe(self):
        return f"uniform[{self.lo:g}, {self.hi:g}]"


@dataclass(frozen=True)
class Normal(Pdf):
    """Normal distribution with mean mu and standard deviation sigma."""

    mu: float
    sigma: float

    def __post_init__(self):
        if not (math.isfinite(self.mu) and math.isfinite(self.sigma)):
            raise ValueError("normal parameters must be finite")
        if self.sigma <= 0:
            raise ValueError(f"normal requires sigma > 0, got {self.sigma}")

    def cdf(self, x):
        x = np.asarray(x, dtype=np.float64)
        return ndtr((x - self.mu) / self.sigma)[()]

    def _draw(self, gen, n):
        # Inverse-CDF method; uniforms kept strictly inside (0, 1).
        return self.mu + self.sigma * ndtri(_open_uniform(gen, n))

    @cached_property
    def _support(self):
        return (float(self.mu + self.sigma * ndtri(_U_LO)),
                float(self.mu + self.sigma * ndtri(_U_HI)))

    def describe(self):
        return f"normal(mu={self.mu:g}, sigma={self.sigma:g})"


@dataclass(frozen=True)
class Triangular(Pdf):
    """Triangular distribution on [lo, hi] with the given mode."""

    lo: float
    mode: float
    hi: float

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.lo, self.mode, self.hi)):
            raise ValueError("triangular parameters must be finite")
        if not (self.lo <= self.mode <= self.hi) or not self.lo < self.hi:
            raise ValueError(
                f"triangular requires lo <= mode <= hi and lo < hi, got "
                f"({self.lo}, {self.mode}, {self.hi})"
            )

    def cdf(self, x):
        x = np.asarray(x, dtype=np.float64)
        lo, mode, hi = self.lo, self.mode, self.hi
        width = hi - lo
        out = np.zeros_like(x, dtype=np.float64)
        if mode > lo:
            rising = (x > lo) & (x <= mode)
            out = np.where(rising, (x - lo) ** 2 / (width * (mode - lo)), out)
        if hi > mode:
            falling = (x > mode) & (x < hi)
            out = np.where(falling, 1.0 - (hi - x) ** 2 / (width * (hi - mode)), out)
        out = np.where(x >= hi, 1.0, out)
        if mode == lo:
            out = np.where((x > lo) & (x < hi), 1.0 - (hi - x) ** 2 / (width * width), out)
        return out[()]

    def _draw(self, gen, n):
        return self._inverse_cdf(_open_uniform(gen, n))

    def _inverse_cdf(self, u):
        lo, mode, hi = self.lo, self.mode, self.hi
        width = hi - lo
        split = (mode - lo) / width
        left = lo + np.sqrt(u * width * (mode - lo)) if mode > lo else np.full(len(u), lo)
        right = hi - np.sqrt((1.0 - u) * width * (hi - mode)) if hi > mode else np.full(len(u), hi)
        return np.where(u < split, left, right)

    @cached_property
    def _support(self):
        # Each branch is monotone in u, so the extremes sit at the extreme
        # uniforms (up to rounding where the branches meet at the mode).
        lo, hi = self._inverse_cdf(np.array([_U_LO, _U_HI]))
        return float(lo), float(hi)

    def describe(self):
        return f"triangular({self.lo:g}, {self.mode:g}, {self.hi:g})"


@dataclass(frozen=True)
class Empirical(Pdf):
    """Distribution defined by stored observations.

    The CDF counts samples exactly (fraction of observations <= x), so
    interval probabilities are exact sample fractions. Sampling draws
    uniformly from the stored observations, one ``gen.random()`` value per
    draw indexing their sorted copy.
    """

    samples: tuple[float, ...]

    def __post_init__(self):
        if len(self.samples) == 0:
            raise ValueError("empirical distribution requires at least one sample")
        arr = np.asarray(self.samples, dtype=np.float64)
        if not np.all(np.isfinite(arr)):
            raise ValueError("empirical samples must all be finite")

    @cached_property
    def _sorted(self) -> np.ndarray:
        arr = np.sort(np.asarray(self.samples, dtype=np.float64))
        arr.setflags(write=False)
        return arr

    def cdf(self, x):
        x = np.asarray(x, dtype=np.float64)
        counts = np.searchsorted(self._sorted, x, side="right")
        return (counts / len(self._sorted))[()]

    def _draw(self, gen, n):
        arr = self._sorted
        idx = (gen.random(n) * len(arr)).astype(np.intp)
        return arr[np.minimum(idx, len(arr) - 1, out=idx)]

    @cached_property
    def _support(self):
        return float(self._sorted[0]), float(self._sorted[-1])

    def describe(self):
        return f"empirical(n={len(self.samples)})"


def from_samples(values) -> Empirical:
    """Build an :class:`Empirical` distribution from observed values.

    Raises ``ValueError`` when ``values`` is empty or contains non-finite
    entries.
    """
    arr = np.asarray(values, dtype=np.float64).ravel()
    if arr.size == 0:
        raise ValueError("cannot build an empirical distribution from zero samples")
    if not np.all(np.isfinite(arr)):
        raise ValueError("empirical samples must all be finite")
    return Empirical(tuple(float(v) for v in arr))


def draw_from(pdf: Pdf, gen: Generator, n: int) -> np.ndarray:
    """Draw ``n`` values of ``pdf`` from ``gen``, advancing its stream.

    This is the package's only sampling entry point. Take ``gen`` from
    :meth:`RngState.generator` so the draws can be reproduced from the seed.
    """
    return pdf._draw(gen, n)
