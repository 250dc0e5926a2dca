"""Distribution families: exact CDFs, interval masses, and seeded sampling.

Expected values marked "oracle:" were computed independently with mpmath at
40-digit precision and rounded to float64, or follow from closed-form
geometry; they are frozen here rather than recomputed from package code.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy import stats

from axdesign import (
    Empirical,
    Normal,
    Pdf,
    RngState,
    Triangular,
    Uniform,
    draw_from,
    from_samples,
)

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
    pdf = from_samples([1.0, 2.0, 2.0, 3.0])
    assert pdf.cdf(0.5) == 0.0
    assert pdf.cdf(1.0) == 0.25
    assert pdf.cdf(2.0) == 0.75
    assert pdf.cdf(3.0) == 1.0
    assert pdf.interval_probability(1.5, 2.5) == 0.5


def test_empirical_single_atom():
    pdf = from_samples([4.2])
    assert pdf.cdf(4.1) == 0.0
    assert pdf.cdf(4.2) == 1.0
    assert pdf.interval_probability(4.0, 5.0) == 1.0


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
def test_cdf_is_monotone_and_vectorized(pdf: Pdf):
    grid = np.linspace(-60.0, 60.0, 401)
    values = pdf.cdf(grid)
    assert values.shape == grid.shape
    assert np.all(np.diff(values) >= -1e-15)
    assert values[0] <= 1e-12
    assert values[-1] >= 1.0 - 1e-12


def test_interval_rejects_inverted_bounds():
    with pytest.raises(ValueError, match="exceeds"):
        Uniform(0.0, 1.0).interval_probability(2.0, 1.0)
    with pytest.raises(ValueError, match="exceeds"):
        Normal(0.0, 1.0).interval_probability(1.0, 0.0)


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
        from_samples([])
    with pytest.raises(ValueError):
        from_samples([1.0, math.inf])
    with pytest.raises(ValueError):
        Empirical(())


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
    with pytest.raises(ValueError):
        draw_from(Uniform(0.0, 1.0), RngState(seed=0).generator(), -1)


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
    statistic = stats.kstest(values, pdf.cdf).statistic
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
    pdf = from_samples(atoms)
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


class _ExtremeGenerator:
    """Stands in for a Generator: random() alternates its two extreme
    values, 0.0 and the largest double below 1."""

    def random(self, n):
        return np.resize([0.0, 1.0 - 2.0**-53], n)


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
    values = draw_from(pdf, _ExtremeGenerator(), 4)
    lo, hi = pdf._support
    assert np.all(np.isfinite(values))
    assert np.all((lo <= values) & (values <= hi))
    assert values.min() == lo and values.max() == hi
