"""Distribution families: exact CDFs, interval masses, and seeded sampling.

Expected values marked "oracle:" were computed independently with mpmath at
40-digit precision and rounded to float64, or follow from closed-form
geometry; they are frozen here rather than recomputed from package code.
"""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import stats

from axdesign import (
    DesignParameter,
    DesignRange,
    Empirical,
    LinearModel,
    Normal,
    Pdf,
    RngState,
    TankConfig,
    Triangular,
    Uniform,
    estimate_design_matrix,
)
from axdesign.coupling import checked_epsilon
from axdesign.distributions import draw_from, is_real

# Any warning fails the tests so marked, bar one: a failing property's report
# imports libcst, whose use of mypy_extensions.TypedDict warns, and as an
# error that would end the run in INTERNALERROR and lose the falsifying
# example. Later filters take precedence, so the ignore follows "error".
WARNINGS_ARE_ERRORS = pytest.mark.filterwarnings(
    "error", "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning")

# oracle: mpmath.ncdf(1) at 40 digits -> float64
PHI_1 = 0.8413447460685429
# oracle: mpmath.ncdf(1) - mpmath.ncdf(-1) (the one-sigma band)
P_1SIGMA = 0.6826894921370859


# ---------------------------------------------------------------------------
# Closed-form CDF / interval values


def test_normal_cdf_matches_high_precision_value():
    assert Normal(0.0, 1.0).cdf(1.0) == pytest.approx(PHI_1, rel=1e-14)
    # cdf is location/scale equivariant: same z-score, same value.
    assert Normal(65.0, 0.5).cdf(65.5) == pytest.approx(PHI_1, rel=1e-14)


def test_normal_one_sigma_band_probability():
    p = Normal(65.0, 0.5).interval_probability(64.5, 65.5)
    assert p == pytest.approx(P_1SIGMA, rel=1e-14)


def test_uniform_partial_overlap_is_ratio_of_lengths():
    # [0.95, 1.1] covers 0.15 of the 0.2-wide support -> 0.75 exactly.
    p = Uniform(0.9, 1.1).interval_probability(0.95, 1.15)
    assert p == pytest.approx(0.75, abs=1e-12)


def test_uniform_full_cover_and_disjoint():
    pdf = Uniform(2.0, 3.0)
    assert pdf.interval_probability(1.0, 4.0) == 1.0
    assert pdf.interval_probability(3.5, 4.0) == 0.0


def test_triangular_closed_form_cdf():
    pdf = Triangular(0.0, 1.0, 2.0)
    # Rising branch: (x-lo)^2 / (width * (mode-lo)).
    assert pdf.cdf(0.5) == pytest.approx(0.125, abs=1e-15)
    assert pdf.cdf(1.0) == pytest.approx(0.5, abs=1e-15)
    # Falling branch mirrors it.
    assert pdf.cdf(1.5) == pytest.approx(0.875, abs=1e-15)
    assert pdf.interval_probability(0.5, 1.5) == pytest.approx(0.75, abs=1e-15)


def test_triangular_degenerate_edges():
    left = Triangular(0.0, 0.0, 2.0)  # mode at the lower edge
    assert left.cdf(1.0) == pytest.approx(0.75, abs=1e-15)
    right = Triangular(0.0, 2.0, 2.0)  # mode at the upper edge
    assert right.cdf(1.0) == pytest.approx(0.25, abs=1e-15)


def test_empirical_cdf_counts_samples_exactly():
    pdf = Empirical([1.0, 2.0, 2.0, 3.0])
    assert pdf.cdf(0.5) == 0.0
    assert pdf.cdf(1.0) == 0.25
    assert pdf.cdf(2.0) == 0.75
    assert pdf.cdf(3.0) == 1.0
    assert pdf.interval_probability(1.5, 2.5) == 0.5


def test_empirical_single_atom():
    pdf = Empirical([4.2])
    assert pdf.cdf(4.1) == 0.0
    assert pdf.cdf(4.2) == 1.0
    assert pdf.interval_probability(4.0, 5.0) == 1.0


def test_empirical_mass_on_a_closed_range_is_the_sample_fraction():
    # Observations at either end of the range are inside it, and the mass
    # is one count over the sample count.
    assert Empirical([1, 2, 3]).interval_probability(1.0, 3.0) == 1.0
    assert Empirical([1, 2, 3]).interval_probability(2.0, 2.0) == 1 / 3
    assert Empirical(tuple(range(10))).interval_probability(0.5, 2.5) == 0.2


_OBSERVATIONS = st.lists(st.one_of(st.integers(-3, 3).map(float), st.floats(-1e3, 1e3)),
                         min_size=1, max_size=30)


@given(samples=_OBSERVATIONS, data=st.data())
def test_empirical_mass_counts_the_observations_in_the_range(samples, data):
    # Range ends drawn from the observations themselves, or anywhere.
    end = st.one_of(st.sampled_from(samples), st.floats(-2e3, 2e3))
    lo, hi = sorted([data.draw(end), data.draw(end)])
    x = np.array(samples)
    assert Empirical(tuple(samples)).interval_probability(lo, hi) \
        == ((x >= lo) & (x <= hi)).sum() / len(x)


ALL_FAMILIES = [
    Uniform(2.0, 5.0),
    Normal(-1.0, 2.0),
    Triangular(0.0, 1.0, 3.0),
    Empirical((1.0, 2.0, 2.5, 4.0, 4.0, 7.0)),
]


@pytest.mark.parametrize("pdf", ALL_FAMILIES, ids=lambda p: p.describe())
def test_total_mass_is_one(pdf: Pdf):
    assert pdf.interval_probability(-1e6, 1e6) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("pdf", ALL_FAMILIES, ids=lambda p: p.describe())
def test_interval_masses_are_additive(pdf: Pdf):
    a, b, c = -0.5, 1.7, 4.3
    whole = pdf.interval_probability(a, c)
    split = pdf.interval_probability(a, b) + pdf.interval_probability(b, c)
    assert whole == pytest.approx(split, abs=1e-15)


@pytest.mark.parametrize("pdf", ALL_FAMILIES, ids=lambda p: p.describe())
def test_cdf_is_monotone(pdf: Pdf):
    grid = np.linspace(-60.0, 60.0, 401)
    values = np.array([pdf.cdf(x) for x in grid.tolist()])
    assert all(type(pdf.cdf(x)) is float for x in (-1.0, 0.5, 60.0))
    assert np.all(np.diff(values) >= -1e-15)
    assert values[0] <= 1e-12
    assert values[-1] >= 1.0 - 1e-12


def test_interval_rejects_inverted_bounds():
    with pytest.raises(ValueError, match="exceeds"):
        Uniform(0.0, 1.0).interval_probability(2.0, 1.0)
    with pytest.raises(ValueError, match="exceeds"):
        Normal(0.0, 1.0).interval_probability(1.0, 0.0)


# ---------------------------------------------------------------------------
# Wide uniform and triangular pdfs: finite parameters whose width, or its
# square, overflows float64, and ranges narrow next to the width; normal
# upper tails and narrow ranges in very wide normals


def _exact_mass(pdf: Pdf, a: float, b: float) -> mpmath.mpf:
    """The mass of ``pdf`` on [a, b] in exact rational arithmetic (every
    float64 is a dyadic rational, and 4000 bits hold these sums exactly);
    for a normal, erfc at 4000 bits."""
    f = mpmath.mpf
    if isinstance(pdf, Normal):
        scale = f(pdf.sigma) * mpmath.sqrt(2)
        return (mpmath.erfc((f(a) - f(pdf.mu)) / scale)
                - mpmath.erfc((f(b) - f(pdf.mu)) / scale)) / 2
    if isinstance(pdf, Uniform):
        lo, hi = f(pdf.lo), f(pdf.hi)
        return max(min(f(b), hi) - max(f(a), lo), 0) / (hi - lo)
    lo, mode, hi = f(pdf.lo), f(pdf.mode), f(pdf.hi)

    def cdf(x):
        x = min(max(f(x), lo), hi)
        if x <= mode:
            return (x - lo) ** 2 / ((hi - lo) * (mode - lo)) if mode > lo else f(0)
        return 1 - (hi - x) ** 2 / ((hi - lo) * (hi - mode))

    return cdf(b) - cdf(a)


WIDE = [
    (Uniform(-1.5e308, 1.5e308), -1.0, 1.0),
    (Uniform(-1e300, 1e300), -1.0, 1.0),
    (Uniform(-1e9, 1e9), -1e-9, 1e-9),
    (Uniform(0.0, 1.7e308), 1.6e308, math.inf),
    (Triangular(-1e160, 0.0, 1e160), -1.0, 1.0),
    (Triangular(-1.7e308, 1e307, 1.7e308), -1e300, 2e300),
    (Triangular(0.0, 0.0, 1e200), 0.0, 1e150),
    (Triangular(-1e200, 1e200, 1e200), 1e200 - 1e190, 1e200),
    (Triangular(0.0, 1.0, 2.0), -1e200, 1e200),
    (Triangular(-5.0, 2.0, 3.0), 1.0, 1.0 + 2.0**-40),
    (Triangular(0.0, 1.0, 1e300), -1.0, 1.0),
    (Triangular(-1e300, -1.0, 0.0), -1.0, 1.0),
    (Normal(0.0, 1.0), 10.0, 11.0),
    (Normal(0.0, 1.0), 37.0, 38.0),
    (Normal(0.0, 1e20), -1.0, 1.0),
    (Normal(0.0, 1e20), 1.0, 2.0),
    # x - mu overflows, z = (x - mu) / sigma does not
    (Normal(-1.7e308, 1e308), 1e308, 1.7e308),
    (Normal(1.7e308, 1e308), -1.7e308, -1e308),
]


@WARNINGS_ARE_ERRORS
@pytest.mark.parametrize("pdf,a,b", WIDE, ids=[f"{pdf.describe()} on [{a!r}, {b!r}]" for pdf, a, b in WIDE])
def test_wide_pdf_interval_masses_match_exact_arithmetic(pdf, a, b):
    with mpmath.workprec(4000):
        exact = _exact_mass(pdf, a, b)
        assert exact > 0
        assert pdf.interval_probability(a, b) == pytest.approx(float(exact), rel=1e-12, abs=0)


@WARNINGS_ARE_ERRORS
@settings(max_examples=300, deadline=None)
@given(family=st.sampled_from(["uniform", "triangular"]), exponent=st.integers(-40, 1023),
       centre=st.floats(-0.25, 0.25), half=st.floats(1e-6, 1.5), mode=st.floats(0.0, 1.0),
       offset=st.floats(-1.2, 1.2), size=st.integers(-320, 1))
# A mode a subnormal above the low end, where the rising branch overflows.
@example(family="triangular", exponent=0, centre=0.25, half=0.25, mode=2.2250738585e-313,
         offset=0.0, size=0)
# A mode one subnormal above the low end, where the rising branch is 0 / 0.
@example(family="triangular", exponent=0, centre=0.25, half=0.25, mode=1e-323,
         offset=-1.0, size=0)
def test_interval_masses_match_exact_arithmetic(family, exponent, centre, half, mode,
                                                offset, size):
    # A pdf about 2**exponent wide, up to float64's limit and past it for
    # the width, and a range 2**size of that, in or around the support.
    scale = 2.0**exponent
    lo, hi = (centre - half) * scale, (centre + half) * scale
    if family == "uniform":
        pdf = Uniform(lo, hi)
    else:
        pdf = Triangular(lo, min(max(lo * (1 - mode) + hi * mode, lo), hi), hi)
    a = (centre + offset * half) * scale
    b = a + half * scale * 2.0**(size + 1)
    assume(math.isfinite(b))
    p = pdf.interval_probability(a, b)
    with mpmath.workprec(4000):
        exact = _exact_mass(pdf, a, b)
        assert p == pytest.approx(float(exact), rel=1e-11, abs=1e-300)


# oracle: mpmath at 2000 bits; each range is narrow, so the CDF and erf
# differences cancel on it
NARROW = [
    (0.5, 0.5 + 1e-15, 3.5178392875131410e-16),
    (2.0, 2.0 + 1e-12, 5.399576634149823e-14),
    (-3.0 - 1e-13, -3.0, 4.4283061337231463e-16),
]


@pytest.mark.parametrize("a, b, exact", NARROW)
def test_narrow_normal_ranges_integrate_the_density(a, b, exact):
    assert Normal(0.0, 1.0).interval_probability(a, b) == pytest.approx(exact, rel=1e-12, abs=0)


@WARNINGS_ARE_ERRORS
@pytest.mark.parametrize("pdf, a, b, mass", [
    (Normal(0.0, 1e-311), 1.0, 2.0, 0.0),
    (Normal(0.0, 1e-311), -2.0, -1.0, 0.0),
    (Normal(0.0, 1e-311), -1.0, 1.0, 1.0),
    (Normal(0.0, 1.0), 1e200, 1e200, 0.0),
    (Normal(0.0, 1.0), 1e160, 2e160, 0.0),
    (Normal(-1e308, 1.0), -1.0, 1.0, 0.0),
], ids=lambda v: v.describe() if isinstance(v, Pdf) else repr(v))
def test_a_subnormal_sigma_puts_every_range_at_infinite_z(pdf, a, b, mass):
    # At sigma 1e-311 every z-value off the mean overflows to +-inf: a range
    # on one side holds nothing, a range about the mean holds everything.
    # A range far out at a normal sigma holds nothing too, where its z-values
    # are finite but their squares or sums overflow.
    assert pdf.interval_probability(a, b) == mass


def _exact_z(x, mu, sigma):
    """(x - mu) / sigma in exact rational arithmetic."""
    return (Fraction(x) - Fraction(mu)) / Fraction(sigma)


@WARNINGS_ARE_ERRORS
@settings(max_examples=500, deadline=None)
@given(mu=st.floats(allow_nan=False, allow_infinity=False),
       sigma=st.floats(min_value=5e-324, allow_infinity=False),
       ends=st.lists(st.floats(allow_nan=False, allow_infinity=False),
                     min_size=2, max_size=2))
def test_normal_masses_are_probabilities_for_any_finite_parameters(mu, sigma, ends):
    # Across float64's range, subnormal sigmas included, a mass is never nan
    # nor outside [0, 1], and a range 40 or more sigmas out on one side of
    # the mean holds 0.0: its exact mass is below ndtr(-40), under 1e-349.
    lo, hi = sorted(ends)
    p = Normal(mu, sigma).interval_probability(lo, hi)
    assert 0.0 <= p <= 1.0
    if _exact_z(lo, mu, sigma) >= 40 or _exact_z(hi, mu, sigma) <= -40:
        assert p == 0.0


@WARNINGS_ARE_ERRORS
@settings(max_examples=500, deadline=None)
@given(mid=st.floats(-37.0, 37.0), size=st.floats(-55.0, 4.0),
       mu=st.sampled_from([0.0, 0.25, -3.0, 1e6]), scale=st.integers(-8, 8))
@example(mid=30.0, size=-6.66, mu=0.0, scale=0)  # narrow, where He_4 counts
@example(mid=-33.0, size=-6.5, mu=0.0, scale=0)  # just wider, deep in a tail
def test_normal_masses_match_exact_arithmetic(mid, size, mu, scale):
    # A range about a midpoint up to 37 sigmas out, 2**size sigmas wide
    # times min(1, 1 / |mid|), the scale on which the density changes:
    # below 2**-6.6 or so it is narrow and integrates the density.
    sigma = 2.0**scale
    half = 2.0**size / max(1.0, abs(mid)) / 2
    lo, hi = mu + (mid - half) * sigma, mu + (mid + half) * sigma
    assume(lo < hi)
    pdf = Normal(mu, sigma)
    with mpmath.workprec(2000):
        exact = _exact_mass(pdf, lo, hi)
        assume(exact > 1e-290)
        assert pdf.interval_probability(lo, hi) == pytest.approx(float(exact), rel=1e-12, abs=0)


_UNITS = st.integers(-640, 640).map(lambda i: i / 64)


@WARNINGS_ARE_ERRORS
@settings(max_examples=200, deadline=None)
@given(family=st.sampled_from(["uniform", "triangular"]), lo=_UNITS,
       steps=st.lists(st.integers(0, 640), min_size=2, max_size=2),
       x=st.lists(_UNITS, min_size=2, max_size=2), k=st.integers(0, 2**53 - 1))
def test_scaled_arithmetic_gives_the_unscaled_bits(family, lo, steps, x, k):
    # Scaled by 2**600, the pdf's width squared overflows, so it is computed
    # on scaled parameters; every result is the small pdf's, scaled exactly.
    mode, hi = lo + steps[0] / 64, lo + (steps[0] + steps[1] + 1) / 64
    big = 2.0**600

    def make(s):
        return Uniform(lo * s, hi * s) if family == "uniform" \
            else Triangular(lo * s, mode * s, hi * s)

    small, large = make(1.0), make(big)
    assert small._scaled[0] == 1.0 and large._scaled[0] < 1.0
    a, b = min(x), max(x)
    assert large.cdf(a * big) == small.cdf(a)
    assert large.interval_probability(a * big, b * big) == small.interval_probability(a, b)
    u = k / 2**53
    draws = large._transform(np.array([u, 0.0, 1.0 - 2.0**-53]))
    assert np.array_equal(draws, small._transform(np.array([u, 0.0, 1.0 - 2.0**-53])) * big)


# ---------------------------------------------------------------------------
# Construction errors


def test_invalid_parameters_are_rejected():
    with pytest.raises(ValueError):
        Uniform(1.0, 1.0)
    with pytest.raises(ValueError):
        Uniform(0.0, math.inf)
    with pytest.raises(ValueError):
        Normal(0.0, 0.0)
    with pytest.raises(ValueError):
        Normal(math.nan, 1.0)
    with pytest.raises(ValueError):
        Triangular(0.0, 3.0, 2.0)
    with pytest.raises(ValueError):
        Triangular(2.0, 2.0, 2.0)
    with pytest.raises(ValueError):
        Empirical([1.0, math.inf])
    with pytest.raises(ValueError):
        Empirical(())


# Every constructor that takes a number from its caller, with the message it
# raises for one that is not a finite float64 number.
_ONE_DP_MODEL = LinearModel(np.eye(1), [Uniform(0.0, 1.0)])
_FINITE_NUMBER_SLOTS = {
    "uniform": (lambda v: Uniform(0.0, v), "uniform bounds must be finite"),
    "normal": (lambda v: Normal(v, 1.0), "normal parameters must be finite"),
    "triangular": (lambda v: Triangular(0.0, 0.5, v), "triangular parameters must be finite"),
    "empirical": (lambda v: Empirical((v,)), "empirical samples must all be finite"),
    "linear_model_dp": (lambda v: LinearModel(np.eye(1), [v]),
                        "dp_pdfs[0] is neither a Pdf nor a finite number"),
    "design_range": (lambda v: DesignRange(v, 0.1, 0.1),
                     "design range nominal must be a finite number"),
    "design_parameter": (lambda v: DesignParameter("x", v),
                         "DP 'x' nominal must be a finite number"),
    "tank_config": (lambda v: TankConfig(level_high=v),
                    "tank configuration values must be finite numbers"),
    "epsilon": (checked_epsilon, "epsilon must be a finite number >= 0"),
    "step": (lambda v: estimate_design_matrix(_ONE_DP_MODEL, [0.0], v),
             "step must be a positive finite number"),
}


@pytest.mark.parametrize("value", [True, 10**400, math.nan, math.inf, "1"],
                         ids=["bool", "big_int", "nan", "inf", "str"])
@pytest.mark.parametrize("slot", sorted(_FINITE_NUMBER_SLOTS))
def test_constructors_take_only_finite_float64_numbers(slot, value):
    make, message = _FINITE_NUMBER_SLOTS[slot]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        make(value)


@pytest.mark.parametrize("make", [
    lambda c: Uniform(0, c), lambda c: Uniform(-c, c), lambda c: Triangular(-c, 0, c),
], ids=["uniform", "uniform_wide", "triangular"])
def test_int_parameters_give_what_their_floats_give(make):
    # (hi - lo) ** 2 of these ints is past float64 while the ints are not.
    as_int, as_float = make(10**300), make(1e300)
    assert as_int.interval_probability(-1.0, 1.0) == as_float.interval_probability(-1.0, 1.0)
    assert as_int.cdf(5.0) == as_float.cdf(5.0)


def test_is_real_is_the_finite_float64_test():
    for value in (0, -3, 0.5, np.float64(2.0), 2**1023, -sys.float_info.max):
        assert is_real(value)
    for value in (True, 10**400, -(10**400), math.nan, -math.inf, "1", None,
                  np.int64(1), np.float32(1.0)):
        assert not is_real(value)


# ---------------------------------------------------------------------------
# Sampling: reproducibility and statistical agreement with the CDFs


def test_same_state_gives_identical_draws():
    rng = RngState(seed=7)
    a = draw_from(Normal(0.0, 1.0), rng.generator(), 100)
    b = draw_from(Normal(0.0, 1.0), rng.generator(), 100)
    assert np.array_equal(a, b)


def test_substreams_are_distinct_and_order_independent():
    root = RngState(seed=123)
    s0, s1 = root.substream(0), root.substream(1)
    a0 = draw_from(Normal(0.0, 1.0), s0.generator(), 200)
    a1 = draw_from(Normal(0.0, 1.0), s1.generator(), 200)
    assert not np.array_equal(a0, a1)
    # Drawing from one substream never perturbs another: repeat in the
    # opposite order and the values are unchanged.
    b1 = draw_from(Normal(0.0, 1.0), root.substream(1).generator(), 200)
    b0 = draw_from(Normal(0.0, 1.0), root.substream(0).generator(), 200)
    assert np.array_equal(a0, b0)
    assert np.array_equal(a1, b1)


def test_rng_state_validation():
    with pytest.raises(ValueError):
        RngState(seed=-1)
    with pytest.raises(ValueError):
        RngState(seed=0).substream(-2)
    # Booleans are neither seeds nor substream keys.
    with pytest.raises(ValueError, match="^seed must be a non-negative integer$"):
        RngState(seed=True)
    with pytest.raises(ValueError, match="^substream key must be a non-negative integer$"):
        RngState(seed=0).substream(True)
    with pytest.raises(ValueError):
        draw_from(Uniform(0.0, 1.0), RngState(seed=0).generator(), -1)
    for start in (-1, True, False, 1.0, None):
        with pytest.raises(ValueError, match="^generator start must be a non-negative integer$"):
            RngState(seed=0).generator(start)


def test_uniform_draws_stay_in_half_open_support():
    values = draw_from(Uniform(0.0, 1.0), RngState(seed=3).generator(), 100_000)
    assert np.all(values >= 0.0)
    assert np.all(values < 1.0)


CONTINUOUS = [
    Uniform(2.0, 5.0),
    Normal(-1.0, 2.0),
    Triangular(0.0, 1.0, 3.0),
]


@pytest.mark.parametrize("pdf", CONTINUOUS, ids=lambda p: p.describe())
def test_samples_match_cdf_kolmogorov_smirnov(pdf: Pdf):
    values = draw_from(pdf, RngState(seed=42).generator(), 100_000)
    statistic = stats.kstest(values, np.vectorize(pdf.cdf)).statistic
    # K-S critical value at alpha=0.001 for n=1e5 is ~0.0062; with a fixed
    # seed this is a deterministic regression bound, not a flaky test.
    assert statistic < 0.01


@pytest.mark.parametrize(
    "pdf,mean,sd",
    [
        (Uniform(0.0, 1.0), 0.5, 1.0 / math.sqrt(12.0)),
        (Normal(3.0, 0.5), 3.0, 0.5),
        # oracle: triangular moments, mean=(lo+mode+hi)/3,
        # var=(lo^2+m^2+hi^2-lo*m-lo*hi-m*hi)/18 = 7/18.
        (Triangular(0.0, 1.0, 3.0), 4.0 / 3.0, math.sqrt(7.0 / 18.0)),
    ],
    ids=["uniform", "normal", "triangular"],
)
def test_sample_means_converge(pdf: Pdf, mean: float, sd: float):
    n = 100_000
    values = draw_from(pdf, RngState(seed=9).generator(), n)
    assert abs(float(values.mean()) - mean) < 3.0 * sd / math.sqrt(n)


def test_empirical_resampling_uses_only_stored_atoms():
    atoms = [1.0, 2.0, 3.0, 5.0]
    pdf = Empirical(atoms)
    values = draw_from(pdf, RngState(seed=17).generator(), 40_000)
    assert set(np.unique(values)) <= set(atoms)
    # Each atom has probability 1/4; 3-sigma binomial band at n=4e4.
    tol = 3.0 * math.sqrt(0.25 * 0.75 / 40_000)
    for atom in atoms:
        assert abs(float((values == atom).mean()) - 0.25) < tol


def test_normal_draws_are_symmetric_about_the_mean():
    values = draw_from(Normal(10.0, 2.0), RngState(seed=5).generator(), 100_000)
    above = float((values > 10.0).mean())
    assert abs(above - 0.5) < 3.0 * math.sqrt(0.25 / 100_000)


# ---------------------------------------------------------------------------
# One gen.random() value per draw, and the extremes of that value


@pytest.mark.parametrize("pdf", ALL_FAMILIES, ids=lambda p: p.describe())
@pytest.mark.parametrize("a,b", [(0, 5), (1, 1), (7, 100), (1000, 3)])
def test_draws_take_one_uniform_each(pdf: Pdf, a: int, b: int):
    whole = draw_from(pdf, RngState(seed=31).generator(), a + b)
    gen = RngState(seed=31).generator()
    head = draw_from(pdf, gen, a)
    assert np.array_equal(np.concatenate([head, draw_from(pdf, gen, b)]), whole)
    # Skipping a draws with gen.random leaves the tail unchanged.
    gen = RngState(seed=31).generator()
    gen.random(a)
    assert np.array_equal(draw_from(pdf, gen, b), whole[a:])


class _FixedGenerator:
    """Stands in for a Generator whose next random() values are given."""

    def __init__(self, values):
        self.values = values

    def random(self, n):
        return np.array(self.values[:n], dtype=np.float64)


EDGE_FAMILIES = ALL_FAMILIES + [
    Uniform(0.1, 0.3),
    Normal(1e6, 1e-3),
    Triangular(0.0, 0.0, 2.0),
    Triangular(0.1, 0.3, 0.3),
    Empirical((4.2,)),
]


@pytest.mark.parametrize("pdf", EDGE_FAMILIES, ids=lambda p: p.describe())
def test_extreme_uniforms_give_finite_draws_inside_the_support(pdf: Pdf):
    # The top gen.random() value must not round to an inverse-CDF input of
    # exactly 1.0, which gives a normal draw of +inf.
    # The two extreme gen.random() values: 0.0 and the largest double below 1.
    values = draw_from(pdf, _FixedGenerator([0.0, 1.0 - 2.0**-53] * 2), 4)
    lo, hi = pdf._support
    assert np.all(np.isfinite(values))
    assert np.all((lo <= values) & (values <= hi))
    assert values.min() == lo and values.max() == hi


# Generators opened at a value against fresh generators, which numpy's own
# SeedSequence keys, read from value 0 with the first values discarded


@WARNINGS_ARE_ERRORS
@pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**64 + 5, 2**128 + 3])
@pytest.mark.parametrize("stream", [(), (3,), (2**33,)])
@pytest.mark.parametrize("k", [0, 5, 256, 2**32 - 1, 2**32, 2**64])
def test_generators_opened_at_a_value_equal_fresh_generators(seed, stream, k):
    rng = RngState(seed=seed, stream=stream).substream(k)
    for p in (0, 1, 2, 3, 4, 7, 1001, 2**16 + 3):
        gen = rng.generator(p)
        fresh = rng.generator()
        fresh.random(p)
        # Draws of every length mod 4, short and long, continue the substream.
        for m in (5, 0, 1, 2, 3, 4, 5, 63, 64, 257, 3):
            assert np.array_equal(gen.random(m), fresh.random(m))


_KEYS = st.one_of(st.sampled_from([0, 1, 255, 256, 2**32 - 1, 2**32, 2**64]),
                  st.integers(0, 2**70))
_STREAM_OPS = st.lists(st.one_of(
    st.tuples(st.just("open"), _KEYS, st.integers(0, 40)),
    st.tuples(st.just("random"), st.integers(0, 9), st.integers(0, 9)),
), max_size=40)


@WARNINGS_ARE_ERRORS
@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**70), k=_KEYS, p=st.integers(0, 40), ops=_STREAM_OPS)
def test_generators_opened_at_random_values_read_like_fresh_generators(seed, k, p, ops):
    # Generators of one substream or of several may be open at once and
    # read in any interleaving; every draw must read the values of a fresh
    # generator of its substream, from its current position.
    rng = RngState(seed=seed)
    opened = []
    for op, a, b in [("open", k, p)] + ops:
        if op == "open":
            fresh = rng.substream(a).generator()
            fresh.random(b)
            opened.append((rng.substream(a).generator(b), fresh))
        else:
            gen, fresh = opened[a % len(opened)]
            assert gen.random(b).tobytes() == fresh.random(b).tobytes()
