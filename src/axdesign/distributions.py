"""Probability models and reproducible sampling.

Four distribution families are supported: uniform, normal, triangular and
empirical (resampling from stored observations). Every family exposes an
exact CDF and interval probabilities computed as CDF differences, so
interval masses are additive and total mass is 1 to within floating point.
Uniform and triangular pdfs integrate masses below 2**-10 directly, where a
CDF difference would cancel, and work on parameters scaled by a power of two
when their width squared overflows, so any finite parameters give finite
CDFs, draws and masses.

Random number generation
------------------------
There is one way to sample::

    draw_from(pdf, RngState(seed).substream(k).generator(), n)

where a :class:`Substreams` seated at substream k may stand in for the
generator (see below).

:class:`RngState` is an explicit immutable value (root seed and substream
path). Its generator is the counter-based Philox 4x64 algorithm keyed by
numpy's ``SeedSequence`` with the substream path as spawn key, so any result
can be reproduced from the seed alone, and substreams derived with
:meth:`RngState.substream` are independent of the order in which they are
consumed. Successive draws from one generator continue its stream; a caller
that needs an independent, reproducible stream derives another substream.

Every family maps one ``gen.random()`` value to one draw through its
``_transform(u)``, the one place that family's sampling math lives.
``_transform`` takes a float or an array (and gives the same bits either
way), so ``draw_from(pdf, gen, n)`` is ``pdf._transform(gen.random(n))`` and
a caller that needs a single value can write
``pdf._transform(gen.random())`` without building an array. Because each
draw takes exactly one value, ``n`` draws advance the stream by ``n`` values
whatever the family.

* Uniform scales ``u`` onto [lo, hi).
* Normal and triangular variates are generated by the inverse-CDF method:
  ``u = k / 2**53`` becomes the open uniform (k + 0.5) / 2**53, clamped to
  1 - 2**-53 for the top k, where the sum rounds up to 1.0. This choice is
  fixed for the package, so a given seed always yields the same samples.
* Empirical picks observation ``floor(u * n_obs)`` of the sorted
  observations.

Many short substreams, such as one per simulated cycle, are read through
:class:`Substreams`: one Philox generator that is reseated by assigning its
state rather than rebuilt. Philox is counter-based (Salmon et al., SC 2011),
so seating it at value ``p`` of a substream costs the same for every ``p``,
and ``Substreams.skip(m)`` passes over ``m`` values without drawing them.
Seats and skips only record the position; the next draw assigns the state.
After ``seat(k)`` it yields exactly the values of
``RngState(seed).substream(k).generator()``: the substream keys are
computed by a uint32 restatement of ``SeedSequence`` that derives the keys
of many substreams in one pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.random import Generator, Philox, SeedSequence

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


# scipy.special takes about half the package's import time and only Normal
# uses it, so it loads on the first Normal cdf or draw. The first call of
# any stand-in below rebinds all three names to scipy's ufuncs, so later
# calls go straight to them.
def _load_special() -> None:
    global erfcx, ndtr, ndtri
    from scipy.special import erfcx, ndtr, ndtri


def erfcx(x):
    _load_special()
    return erfcx(x)


def ndtr(x):
    _load_special()
    return ndtr(x)


def ndtri(p):
    _load_special()
    return ndtri(p)


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
    width = hi - lo
    if math.isfinite(width * width):
        return 1.0
    return 2.0 ** (510 - math.frexp(hi * 0.5 - lo * 0.5)[1])


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


# numpy's SeedSequence (O'Neill's seed_seq design; the constants and steps
# of numpy/random/bit_generator.pyx), restated on uint32 words.
_MASK32 = 0xFFFFFFFF
_XSHIFT = 16
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
_KEY_BLOCK = 256  # substream keys derived per pass; divides 2**32


def _words(x: int) -> list[int]:
    """``x`` as SeedSequence splits it: little-endian uint32 words, 0 as [0]."""
    words = [x & _MASK32]
    while x := x >> 32:
        words.append(x & _MASK32)
    return words


def _hasher(const: int, mult: int):
    """SeedSequence's hashmix, with its running hash constant."""

    def hashmix(value):
        nonlocal const
        value = value ^ const
        const = const * mult & _MASK32
        value = value * const & _MASK32
        return value ^ value >> _XSHIFT

    return hashmix


def _mix(x, y):
    result = ((_MIX_MULT_L * x & _MASK32) - (_MIX_MULT_R * y & _MASK32)) & _MASK32
    return result ^ result >> _XSHIFT


def _substream_keys(seed: int, stream: tuple[int, ...], ks: np.ndarray) -> np.ndarray:
    """Philox keys, shape (len(ks), 2) uint64, of the substreams
    ``SeedSequence(seed, spawn_key=stream + (k,))`` for the uint32 ``ks``.

    The entropy words are the seed's (zero-padded to the pool size, as
    SeedSequence does when there is a spawn key), the stream's, then k's
    single word. Every word before k's is mixed into the pool once, as a
    Python integer; only the last word, k, is mixed as an array, which
    wraps on uint32 overflow without a warning.
    """
    entropy = _words(seed)
    entropy += [0] * (_POOL_SIZE - len(entropy))
    for key in stream:
        entropy += _words(key)

    hashmix = _hasher(_INIT_A, _MULT_A)
    pool = [hashmix(word) for word in entropy[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        pool = [_mix(mixed, hashmix(word)) for mixed in pool]
    pool = [_mix(mixed, hashmix(ks)) for mixed in pool]

    # generate_state(2, uint64): one output word per pool word, read in
    # pairs as little-endian uint64.
    output = _hasher(_INIT_B, _MULT_B)
    state = np.stack([output(mixed) for mixed in pool], axis=1)
    return state.astype("<u4").view("<u8").astype(np.uint64)


class Substreams:
    """The substreams of an :class:`RngState` on one reused Philox generator.

    After :meth:`seat` ``(k)``, :meth:`random` returns exactly what
    ``rng.substream(k).generator().random`` returns, and :meth:`skip`
    passes over values without drawing them. Pass the object to
    :func:`draw_from` in place of a Generator. Substream keys must be below
    2**32.

    ``seat`` and ``skip`` are bookkeeping: they record the position, and
    the next :meth:`random` assigns the generator state once, however many
    seats and skips came before it.
    """

    def __init__(self, rng: RngState):
        self._rng = rng
        self._bitgen = Philox(0)
        self._gen = Generator(self._bitgen)
        self._block = -1
        self._keys: list[list[int]] = []
        self._k = 0
        self._pos = 0
        self._placed = False  # whether the generator stands at (_k, _pos)
        self._state = {
            "bit_generator": "Philox",
            "state": {"counter": [0, 0, 0, 0], "key": [0, 0]},
            "buffer": [0, 0, 0, 0],
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }

    def seat(self, k: int, p: int = 0) -> None:
        """Put the stream at value ``p`` of substream ``k``."""
        if not 0 <= k <= _MASK32:
            raise ValueError("substream key must be in [0, 2**32)")
        self._k = k
        self._pos = p
        self._placed = False

    def skip(self, m: int) -> None:
        """Pass over the next ``m`` values of the current substream."""
        if m:
            self._pos += m
            self._placed = False

    def random(self, n: int | None = None):
        """As ``Generator.random``: the next value, or an array of ``n``."""
        if not self._placed:
            self._place()
        self._pos += 1 if n is None else n
        return self._gen.random(n)

    def _place(self) -> None:
        """Assign the generator state for value ``_pos`` of substream ``_k``."""
        block, i = divmod(self._k, _KEY_BLOCK)
        if block != self._block:
            start = block * _KEY_BLOCK
            ks = np.arange(start, start + _KEY_BLOCK, dtype=np.uint32)
            self._keys = _substream_keys(self._rng.seed, self._rng.stream, ks).tolist()
            self._block = block
        # Philox gives 4 values per counter step and steps the counter
        # before each block, so value p is word p % 4 of the block at
        # counter p // 4 + 1: set the counter to p // 4 with an empty
        # buffer, then draw p % 4 values.
        p = self._pos
        state = self._state
        state["state"]["key"] = self._keys[i]
        state["state"]["counter"][0] = p >> 2
        self._bitgen.state = state
        if p & 3:
            self._bitgen.random_raw(p & 3)
        self._placed = True


def _open(u):
    """The inverse-CDF input of ``u = k / 2**53``: (k + 0.5) / 2**53, kept
    strictly inside (0, 1). An array ``u`` is overwritten."""
    if isinstance(u, np.ndarray):
        u += _U_LO
        return np.minimum(u, _U_HI, out=u)
    return min(u + _U_LO, _U_HI)


class Pdf:
    """Base class for probability models."""

    def cdf(self, x):
        raise NotImplementedError

    def interval_probability(self, lo: float, hi: float) -> float:
        """Probability mass on [lo, hi], computed as cdf(hi) - cdf(lo)."""
        if lo > hi:
            raise ValueError(f"interval lower bound {lo} exceeds upper bound {hi}")
        return float(self.cdf(hi)) - float(self.cdf(lo))

    def _transform(self, u):
        """The draw for ``u = gen.random()``, a float or an array of them.

        Non-decreasing in ``u``; an array ``u`` may be overwritten.
        """
        raise NotImplementedError

    @cached_property
    def _support(self) -> tuple[float, float]:
        """(lo, hi) holding every value a draw can take: ``_transform`` at
        the extreme ``gen.random()`` values, as it is non-decreasing."""
        return float(self._transform(0.0)), float(self._transform(_U_HI))

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

    @cached_property
    def _scaled(self) -> tuple[float, float, float]:
        """(s, lo * s, hi * s - lo * s) for ``s = _scale(lo, hi)``."""
        s = _scale(self.lo, self.hi)
        return s, self.lo * s, self.hi * s - self.lo * s

    def cdf(self, x):
        s, lo, width = self._scaled
        x = np.clip(np.asarray(x, dtype=np.float64), self.lo, self.hi)
        return ((x * s - lo) / width)[()]

    def interval_probability(self, lo: float, hi: float) -> float:
        p = super().interval_probability(lo, hi)
        if p >= _DIRECT_MASS_BELOW:
            return p
        s, _, width = self._scaled
        return max(min(hi, self.hi) * s - max(lo, self.lo) * s, 0.0) / width

    def _transform(self, u):
        # lo + u * (hi - lo) on the scaled bounds, in place on an array.
        s, lo, width = self._scaled
        u *= width
        u += lo
        if s != 1.0:
            u /= s
        return u

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

    def interval_probability(self, lo: float, hi: float) -> float:
        p = super().interval_probability(lo, hi)
        a = (lo - self.mu) / self.sigma
        b = (hi - self.mu) / self.sigma
        # Rounding costs the CDF difference up to 2**-52 of cdf(hi), so it
        # keeps 2**-42 of the mass, as for the other families, while p is at
        # least 2**-10 of cdf(hi): always for masses of 2**-10 and above.
        # Below z = -1, ndtr(z) is itself good only to about z**2 ulps (it
        # takes erfc of a rounded z / sqrt(2)), so the bar rises by z**2.
        tail = min(b, 0.0)
        if p / max(1.0, tail * tail) >= _DIRECT_MASS_BELOW * float(self.cdf(hi)):
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
        if not all(math.isfinite(v) for v in (self.lo, self.mode, self.hi)):
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

    def cdf(self, x):
        s, lo, mode, hi = self._scaled
        x = np.clip(np.asarray(x, dtype=np.float64), self.lo, self.hi) * s
        width = hi - lo
        out = np.zeros_like(x, dtype=np.float64)
        # A branch overflows off its own side when the mode is a subnormal from an end.
        with np.errstate(over="ignore", divide="ignore"):
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
            mass += (top - a) / width * ((top - left) + (a - left)) / (mode - left)
        bottom = max(a, mode)
        if bottom < b:
            mass += (b - bottom) / width * ((right - bottom) + (right - b)) / (right - mode)
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
        return x[()]

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

    def _transform(self, u):
        # Observation floor(u * n), clipped to the last; an array u receives
        # the draws, so the indices are the only other array made.
        arr = self._sorted
        u *= len(arr)
        out = u if isinstance(u, np.ndarray) else None
        return arr.take(np.intp(u), mode="clip", out=out)

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

    Take ``gen`` from :meth:`RngState.generator`, or pass a seated
    :class:`Substreams`, so the draws can be reproduced from the seed. One
    value without an array is ``pdf._transform(gen.random())``, the same
    float as ``draw_from(pdf, gen, 1)[0]``.
    """
    return pdf._transform(gen.random(n))
