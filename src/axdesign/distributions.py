"""Probability models and reproducible sampling.

Four distribution families are supported: uniform, normal, triangular and
empirical (resampling from stored observations). Every family exposes an
exact CDF of one float, ``cdf(x)``, and the mass of a closed range: a CDF
difference for the three continuous families, so their masses are additive,
and the exact fraction of observations in the range for an empirical pdf.
Total mass is 1 to within floating point. Uniform and triangular pdfs
integrate masses below 2**-10 directly, where a CDF difference would
cancel, and work on parameters scaled by a power of two when their width
squared overflows, so any finite parameters give finite CDFs, draws and
masses.

Random number generation
------------------------
There is one way to sample::

    draw_from(pdf, RngState(seed).substream(k).generator(start), n)

:class:`RngState` is an explicit immutable value (root seed and substream
path). Its generator is the counter-based Philox 4x64 algorithm keyed by
numpy's ``SeedSequence`` with the substream path as spawn key, so any result
can be reproduced from the seed alone, and substreams derived with
:meth:`RngState.substream` are independent of the order in which they are
consumed. Successive draws from one generator continue its stream; a caller
that needs an independent, reproducible stream derives another substream.
Philox is counter-based (Salmon et al., SC 2011), so ``generator(start)``
opens the stream at value ``start`` at the same cost for every ``start``:
a caller that reads rows ``start`` on of a stream, such as one part of a
Monte Carlo run, opens it there and reads on in order.

Every family maps an array of ``gen.random(n)`` values to ``n`` draws,
one value each, through its ``_transform(u)``, the one place that family's
sampling math lives: ``draw_from(pdf, gen, n)`` is
``pdf._transform(gen.random(n))``. Because each draw takes exactly one
value, ``n`` draws advance the stream by ``n`` values whatever the family.

* Uniform scales ``u`` onto [lo, hi).
* Normal and triangular variates are generated by the inverse-CDF method:
  ``u = k / 2**53`` becomes the open uniform (k + 0.5) / 2**53, clamped to
  1 - 2**-53 for the top k, where the sum rounds up to 1.0. This choice is
  fixed for the package, so a given seed always yields the same samples.
* Empirical picks observation ``floor(u * n_obs)`` of the sorted
  observations.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "RngState",
    "Pdf",
    "Uniform",
    "Normal",
    "Triangular",
    "Empirical",
    "draw_from",
]


# Below this mass, cdf(hi) - cdf(lo) may have lost more than 2**-42 of its
# value to the rounding of two CDF values near 1 (up to 2**-52 between them),
# so uniform and triangular pdfs integrate their density over the interval
# instead. Larger masses keep the CDF difference and with it the bytes of
# existing reports.
_DIRECT_MASS_BELOW = 2.0**-10

# A normal range is narrow, and integrated from the density, when its width
# in sigmas times max(1, |z|) at its midpoint is below this: CDF differences
# cancel on such a range.
_NARROW_RANGE = 0.01
_SQRT_2 = math.sqrt(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)


def _scale(lo: float, hi: float) -> float:
    """A power of two s that keeps ``((hi - lo) * s) ** 2`` finite.

    It is 1.0 whenever ``(hi - lo) ** 2`` is finite already; otherwise it
    brings the width below 2**511. Scaling by a power of two is exact short
    of the subnormal range, so formulas on the scaled parameters give the
    bits of the unscaled ones wherever those do not overflow.
    """
    width = float(hi) - float(lo)  # an int's square may be past float64
    if math.isfinite(width * width):
        return 1.0
    return 2.0 ** (510 - math.frexp(hi * 0.5 - lo * 0.5)[1])


def _square_over(d: float, width: float, side: float) -> float:
    """``d * d / (width * side)`` (not ``d ** 2``, which Python does not
    always round as ``d * d``). Where ``width * side`` is below the normal
    range, ``d * d`` loses its bits too, down to 0 / 0, so the two ratios
    ``d / width`` and ``d / side`` are multiplied instead."""
    if width * side >= 2.0**-1022:
        return d * d / (width * side)
    return d / width * (d / side)


# Extremes of the open uniform (k + 0.5) / 2**53: k = 0, and the top k
# clamped, which is also the largest ``gen.random()`` value.
_U_LO = 2.0**-54
_U_HI = 1.0 - 2.0**-53


def is_count(value, most=math.inf) -> bool:
    """Whether ``value`` is an int in [1, ``most``]; a bool is not."""
    return isinstance(value, int) and not isinstance(value, bool) and 1 <= value <= most


_FLOAT_MAX = sys.float_info.max


def is_real(value) -> bool:
    """Whether ``value`` is an int or float, not a bool, within
    +-``_FLOAT_MAX``: a finite float64 number. Python compares an int with a
    float exactly, so an int beyond float64's range fails, as do nan and the
    infinities; ``np.float64`` passes, as it subclasses float. The exact
    types that ``json.loads`` gives numbers skip the isinstance test."""
    return ((type(value) in (float, int)
             or type(value) is not bool and isinstance(value, (int, float)))
            and -_FLOAT_MAX <= value <= _FLOAT_MAX)


def float64_array(values, copy=None) -> np.ndarray:
    """``values`` as a float64 array, copied only if needed or if ``copy``.
    An int beyond float64 becomes +-inf, for the caller's finite check to
    reject; nothing else is checked."""
    try:
        return np.array(values, dtype=np.float64, copy=copy)
    except OverflowError:
        objects = np.array(values, dtype=object)
        for i, value in np.ndenumerate(objects):
            if isinstance(value, int) and not -_FLOAT_MAX <= value <= _FLOAT_MAX:
                objects[i] = math.inf if value > 0 else -math.inf
        return objects.astype(np.float64)


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
        if not isinstance(self.seed, int) or isinstance(self.seed, bool) \
                or self.seed < 0:
            raise ValueError("seed must be a non-negative integer")

    def substream(self, key: int) -> "RngState":
        """Derive the independent substream identified by ``key``."""
        if not isinstance(key, int) or isinstance(key, bool) or key < 0:
            raise ValueError("substream key must be a non-negative integer")
        return RngState(self.seed, self.stream + (key,))

    def generator(self, start: int = 0) -> Generator:
        """Fresh numpy Generator standing at value ``start`` of this
        substream: it yields what a generator opened at value 0 yields
        after ``start`` values."""
        if not isinstance(start, int) or isinstance(start, bool) or start < 0:
            raise ValueError("generator start must be a non-negative integer")
        # Loaded at the first draw: classify, validate and analytic info never draw.
        from numpy.random import Generator, Philox, SeedSequence
        bitgen = Philox(SeedSequence(self.seed, spawn_key=self.stream))
        if start:
            # Philox gives 4 values per counter step, so value start is
            # word start % 4 of the block start // 4 steps on.
            bitgen.advance(start >> 2)
            bitgen.random_raw(start & 3)
        return Generator(bitgen)


def _open(u: np.ndarray) -> np.ndarray:
    """The inverse-CDF inputs of ``u = k / 2**53``: (k + 0.5) / 2**53, kept
    strictly inside (0, 1), in place in ``u``."""
    u += _U_LO
    return np.minimum(u, _U_HI, out=u)


class Pdf:
    """Base class for probability models."""

    def cdf(self, x: float) -> float:
        raise NotImplementedError

    def interval_probability(self, lo: float, hi: float) -> float:
        """Probability mass on [lo, hi], computed as cdf(hi) - cdf(lo)."""
        if lo > hi:
            raise ValueError(f"interval lower bound {lo} exceeds upper bound {hi}")
        return self.cdf(hi) - self.cdf(lo)

    def _transform(self, u: np.ndarray) -> np.ndarray:
        """The draws for the array ``u = gen.random(n)``, one per value.

        Non-decreasing in each value; ``u`` may be overwritten.
        """
        raise NotImplementedError

    @cached_property
    def _support(self) -> tuple[float, float]:
        """(lo, hi) holding every value a draw can take: ``_transform`` of
        the extreme ``gen.random()`` values, as it is non-decreasing."""
        return tuple(self._transform(np.array([0.0, _U_HI])).tolist())

    def describe(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class Uniform(Pdf):
    """Uniform distribution on [lo, hi)."""

    lo: float
    hi: float

    def __post_init__(self):
        if not (is_real(self.lo) and is_real(self.hi)):
            raise ValueError("uniform bounds must be finite")
        if not self.lo < self.hi:
            raise ValueError(f"uniform requires lo < hi, got [{self.lo}, {self.hi}]")

    @cached_property
    def _scaled(self) -> tuple[float, float, float]:
        """(s, lo * s, hi * s - lo * s) for ``s = _scale(lo, hi)``."""
        s = _scale(self.lo, self.hi)
        return s, self.lo * s, self.hi * s - self.lo * s

    def cdf(self, x: float) -> float:
        s, lo, width = self._scaled
        return (min(max(x, self.lo), self.hi) * s - lo) / width

    def interval_probability(self, lo: float, hi: float) -> float:
        p = super().interval_probability(lo, hi)
        if p >= _DIRECT_MASS_BELOW:
            return p
        s, _, width = self._scaled
        return max(min(hi, self.hi) * s - max(lo, self.lo) * s, 0.0) / width

    def _transform(self, u):
        # lo + u * (hi - lo) on the scaled bounds, in place.
        s, lo, width = self._scaled
        u *= width
        u += lo
        if s != 1.0:
            u /= s
        return u

    def describe(self):
        return f"uniform[{self.lo:g}, {self.hi:g}]"


# Normal imports scipy.special at the call: it is half the package's import time.
@dataclass(frozen=True)
class Normal(Pdf):
    """Normal distribution with mean mu and standard deviation sigma."""

    mu: float
    sigma: float

    def __post_init__(self):
        if not (is_real(self.mu) and is_real(self.sigma)):
            raise ValueError("normal parameters must be finite")
        if self.sigma <= 0:
            raise ValueError(f"normal requires sigma > 0, got {self.sigma}")

    def _z(self, x: float) -> float:
        """(x - mu) / sigma, taken as x / sigma - mu / sigma where x - mu
        overflows but x does not, so a finite z stays finite."""
        d = x - self.mu
        if math.isinf(d) and math.isfinite(x):
            return x / self.sigma - self.mu / self.sigma
        return d / self.sigma

    def cdf(self, x: float) -> float:
        from scipy.special import ndtr
        return float(ndtr(self._z(x)))

    def interval_probability(self, lo: float, hi: float) -> float:
        from scipy.special import erfcx, ndtr
        p = super().interval_probability(lo, hi)
        a, b = self._z(lo), self._z(hi)
        # A range wholly 40 or more sigmas out on one side holds less than
        # ndtr(-40), which rounds to 0. Returning that here keeps far
        # z-values (infinite at a subnormal sigma), whose squares and
        # products overflow into nan, from the formulas below.
        if a >= 40.0 or b <= -40.0:
            return 0.0
        # Rounding costs the CDF difference up to 2**-52 of cdf(hi), so it
        # keeps 2**-42 of the mass, as for the other families, while p is at
        # least 2**-10 of cdf(hi): always for masses of 2**-10 and above.
        # Below z = -1, ndtr(z) is itself good only to about z**2 ulps (it
        # takes erfc of a rounded z / sqrt(2)), so the bar rises by z**2.
        tail = min(b, 0.0)
        if p / max(1.0, tail * tail) >= _DIRECT_MASS_BELOW * self.cdf(hi):
            return p
        # A range narrow against the density's scale (1, or 1/|z| in a tail)
        # integrates the density: the width times the density at the
        # midpoint z, times the series of the rest in Hermite polynomials of
        # z, cut after He_4, which leaves out under 1e-16 of the mass.
        width = (hi - lo) / self.sigma
        z = a * 0.5 + b * 0.5
        if width * max(1.0, abs(z)) < _NARROW_RANGE:
            z2, w2 = z * z, width * width
            curve = w2 * ((z2 - 1.0) / 24.0 + w2 * ((z2 - 6.0) * z2 + 3.0) / 1920.0)
            return width * math.exp(-0.5 * z2) / _SQRT_2PI * (1.0 + curve)
        # Otherwise mirror the range onto the lower side and take
        # ndtr(b) * (1 - r) for r = ndtr(a) / ndtr(b). Through the scaled
        # complementary error function, r = exp((b - a)(b + a) / 2)
        # * erfcx(-a / sqrt 2) / erfcx(-b / sqrt 2), which no rounding of a
        # large z**2 spoils. Off narrow ranges r stays below about 0.99, so
        # 1 - r keeps about 2**-52 / 0.01 of itself.
        if a + b > 0.0:
            a, b = -b, -a
        r = (math.exp((b - a) * (b + a) / 2.0) * float(erfcx(-a / _SQRT_2))
             / float(erfcx(-b / _SQRT_2)))
        return float(ndtr(b)) * (1.0 - r)

    def _transform(self, u):
        # Inverse-CDF method: mu + sigma * ndtri(open u), scaled in place.
        from scipy.special import ndtri
        x = ndtri(_open(u))
        x *= self.sigma
        x += self.mu
        return x

    def describe(self):
        return f"normal(mu={self.mu:g}, sigma={self.sigma:g})"


@dataclass(frozen=True)
class Triangular(Pdf):
    """Triangular distribution on [lo, hi] with the given mode."""

    lo: float
    mode: float
    hi: float

    def __post_init__(self):
        if not all(map(is_real, (self.lo, self.mode, self.hi))):
            raise ValueError("triangular parameters must be finite")
        if not (self.lo <= self.mode <= self.hi) or not self.lo < self.hi:
            raise ValueError(
                f"triangular requires lo <= mode <= hi and lo < hi, got "
                f"({self.lo}, {self.mode}, {self.hi})"
            )

    @cached_property
    def _scaled(self) -> tuple[float, float, float, float]:
        """(s, lo * s, mode * s, hi * s) for ``s = _scale(lo, hi)``."""
        s = _scale(self.lo, self.hi)
        return s, self.lo * s, self.mode * s, self.hi * s

    def cdf(self, x: float) -> float:
        s, lo, mode, hi = self._scaled
        x = min(max(x, self.lo), self.hi) * s
        if x <= lo:
            return 0.0
        width = hi - lo  # at x = hi, either branch gives 1.0
        if x <= mode:
            return _square_over(x - lo, width, mode - lo)
        # Just past the mode, rounding can leave 1 - ... below the cdf there.
        peak = _square_over(mode - lo, width, mode - lo) if mode > lo else 0.0
        return max(1.0 - _square_over(hi - x, width, hi - mode), peak)

    def interval_probability(self, lo: float, hi: float) -> float:
        p = super().interval_probability(lo, hi)
        if p >= _DIRECT_MASS_BELOW:
            return p
        # On each side of the mode, the length of the part of [lo, hi] there
        # times the mean density over it: each factor stays near 1 or below
        # the width, so nothing overflows or cancels.
        s, left, mode, right = self._scaled
        a, b = max(lo, self.lo) * s, min(hi, self.hi) * s
        width = right - left
        mass = 0.0
        top = min(b, mode)
        if a < top:
            mass += (top - a) / width * (((top - left) + (a - left)) / (mode - left))
        bottom = max(a, mode)
        if bottom < b:
            mass += (b - bottom) / width * (((right - bottom) + (right - b)) / (right - mode))
        return mass

    def _transform(self, u):
        # Inverse-CDF method on the scaled parameters. Each branch is
        # monotone in u; they meet at the mode, up to rounding there.
        s, lo, mode, hi = self._scaled
        width = hi - lo
        u = _open(u)
        left = lo + np.sqrt(u * width * (mode - lo)) if mode > lo else lo
        right = hi - np.sqrt((1.0 - u) * width * (hi - mode)) if hi > mode else hi
        x = np.where(u < (mode - lo) / width, left, right)
        if s != 1.0:
            x /= s
        return x

    def describe(self):
        return f"triangular({self.lo:g}, {self.mode:g}, {self.hi:g})"


@dataclass(frozen=True)
class Empirical(Pdf):
    """Distribution defined by stored observations.

    The CDF and interval masses count samples exactly: ``cdf(x)`` is the
    fraction of observations <= x, and the mass on [lo, hi] the fraction of
    observations in it, ends included. Sampling draws uniformly from the
    stored observations, one ``gen.random()`` value per draw indexing their
    sorted copy.
    """

    samples: tuple[float, ...]

    def __post_init__(self):
        if len(self.samples) == 0:
            raise ValueError("empirical distribution requires at least one sample")
        if not all(map(is_real, self.samples)):
            raise ValueError("empirical samples must all be finite")
        object.__setattr__(self, "samples", tuple(map(float, self.samples)))

    @cached_property
    def _sorted(self) -> np.ndarray:
        arr = np.sort(np.asarray(self.samples, dtype=np.float64))
        arr.setflags(write=False)
        return arr

    def cdf(self, x: float) -> float:
        return int(np.searchsorted(self._sorted, x, side="right")) / len(self._sorted)

    def interval_probability(self, lo: float, hi: float) -> float:
        """Fraction of observations in [lo, hi], one count over the sample
        count: a CDF difference would leave out observations at ``lo``."""
        if lo > hi:
            raise ValueError(f"interval lower bound {lo} exceeds upper bound {hi}")
        arr = self._sorted
        inside = np.searchsorted(arr, hi, side="right") - np.searchsorted(arr, lo, side="left")
        return int(inside) / len(arr)

    def _transform(self, u):
        # Observation floor(u * n), clipped to the last; u receives the
        # draws, so the indices are the only other array made.
        arr = self._sorted
        u *= len(arr)
        return arr.take(np.intp(u), mode="clip", out=u)

    def describe(self):
        return f"empirical(n={len(self.samples)})"


def draw_from(pdf: Pdf, gen: Generator, n: int) -> np.ndarray:
    """Draw ``n`` values of ``pdf`` from ``gen``, advancing its stream by
    ``n`` values.

    Take ``gen`` from :meth:`RngState.generator`, so the draws can be
    reproduced from the seed.
    """
    return pdf._transform(gen.random(n))
