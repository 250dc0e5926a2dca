"""Acceptance suite: ten system-level criteria, one test function each.

Run ``pytest tests/test_acceptance.py -v`` to get exactly one pass/fail
line per criterion. Every expected constant marked "oracle:" was computed
independently (mpmath at 40-digit precision, closed-form geometry, or an
exhaustive brute-force search) and frozen here.
"""

from __future__ import annotations

import itertools
import math
import subprocess
import sys
import time
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from axdesign import (
    Coupled,
    Decoupled,
    DesignRange,
    Empirical,
    LinearModel,
    McConfig,
    Normal,
    RngState,
    Triangular,
    Uncoupled,
    Uniform,
    classify,
    conditional_chain_information,
    fr_information,
    estimate_design_matrix,
    simulate_tank,
    system_information_from_samples,
    system_information_independent,
    system_information_joint,
)
from axdesign.model import FunctionalRequirement

from conftest import fixture_path, load_spec
from test_coupling import brute_force_kind


def _timer(budget_s: float):
    start = time.monotonic()

    def check():
        elapsed = time.monotonic() - start
        assert elapsed < budget_s, f"ran {elapsed:.1f}s, budget {budget_s}s"

    return check


def test_criterion_01_zero_and_infinite_bit_regimes():
    """A range covering the whole outcome pdf costs exactly 0.0 bits; a
    disjoint range costs infinite bits."""
    done = _timer(1.0)
    covered = fr_information(Uniform(2.0, 3.0), DesignRange(2.5, 1.0, 1.0))
    assert covered.probability == 1.0
    assert covered.bits == 0.0  # exact zero, not merely small

    disjoint = fr_information(Uniform(2.0, 3.0), DesignRange(9.0, 1.0, 1.0))
    assert disjoint.probability == 0.0
    assert math.isinf(disjoint.bits)

    # The same regimes hold for an unbounded pdf at extreme ranges.
    assert fr_information(Normal(0.0, 1.0), DesignRange(0.0, 100.0, 100.0)).bits == 0.0
    assert math.isinf(fr_information(Normal(0.0, 1.0), DesignRange(60.5, 0.5, 0.5)).bits)
    done()


def test_criterion_02_one_sigma_band_constant():
    """Normal(mu, sigma) against the design range mu +/- sigma gives the
    classic one-sigma probability and its bit cost.

    oracle: mpmath 40-digit, P = ncdf(1) - ncdf(-1) = 0.6826894921370859
    and -log2(P) = 0.5506985486022824. (The bit value is pinned to -log2 of
    the probability oracle; any bits constant inconsistent with the stated
    probability cannot be satisfied simultaneously with it.)
    """
    done = _timer(1.0)
    res = fr_information(Normal(65.0, 0.5), DesignRange(65.0, 0.5, 0.5))
    assert abs(res.probability - 0.6826895) < 1e-6
    assert abs(res.bits - 0.5506985486022824) < 1e-6
    # Internal consistency: the bits are exactly -log2 of the probability.
    assert res.bits == pytest.approx(-math.log2(res.probability), rel=1e-15)
    done()


def test_criterion_03_independent_bits_are_additive():
    """For k <= 5 independent FRs, the joint Monte Carlo bit total matches
    the sum of the closed-form per-FR bits within 3 standard errors."""
    done = _timer(5.0)
    cases = [
        (Normal(0.0, 1.0), DesignRange(0.0, 1.0, 1.0)),
        (Uniform(0.0, 1.0), DesignRange(0.55, 0.35, 0.35)),
        (Triangular(0.0, 1.0, 2.0), DesignRange(0.95, 0.55, 0.55)),
        (Normal(5.0, 2.0), DesignRange(5.5, 2.5, 2.5)),
        (Empirical([float(v) for v in range(1, 11)]), DesignRange(5.0, 2.5, 2.5)),
    ]
    for k in range(1, 6):
        pdfs = [p for p, _ in cases[:k]]
        frs = [FunctionalRequirement(f"x{i}", r) for i, (_, r) in enumerate(cases[:k])]
        analytic = system_information_independent(
            [fr_information(p, fr.design_range) for p, fr in zip(pdfs, frs)], frs)
        model = LinearModel(np.eye(k), pdfs)
        joint = system_information_joint(
            model, frs, McConfig(seed=314, n_samples=100_000))
        se = joint.mc.std_error
        assert se > 0.0
        assert abs(joint.system_bits - analytic.system_bits) < 3.0 * se, \
            f"k={k}: joint {joint.system_bits} vs analytic {analytic.system_bits}"
    done()


def test_criterion_04_chain_and_joint_estimates_agree():
    """The conditional-chain system probability matches the joint Monte
    Carlo probability within 3 combined standard errors, on both a coupled
    and a decoupled fixture, with a shared seed."""
    done = _timer(5.0)

    def se_p(report) -> float:
        p, n = report.system_probability, report.mc.n_samples
        return math.sqrt(p * (1.0 - p) / n)

    for name in ("faucet_two_knob.json", "machining_cascade.json"):
        spec = load_spec(name)
        model = LinearModel(spec.matrix, [dp.uncertainty for dp in spec.dps])
        cls = classify(spec.matrix)
        if isinstance(cls, Decoupled):
            order = [fr for fr, _ in cls.order]
        else:
            assert isinstance(cls, Coupled)
            order = list(range(len(spec.frs)))
        mc = McConfig(seed=2718, n_samples=100_000)
        joint = system_information_joint(model, spec.frs, mc)
        chain = conditional_chain_information(model, order, spec.frs, mc)
        combined = math.sqrt(se_p(joint) ** 2 + se_p(chain) ** 2)
        assert combined > 0.0
        assert abs(chain.system_probability - joint.system_probability) \
            < 3.0 * combined, name
    done()


def _exhaustive_4x4_kinds() -> tuple[np.ndarray, np.ndarray]:
    """Oracle classification of all 65,536 boolean 4x4 patterns by literal
    permutation search, vectorized over the whole pattern space."""
    masks = np.arange(65536, dtype=np.uint32)
    shifts = np.arange(16, dtype=np.uint32)
    bits = ((masks[:, None] >> shifts[None, :]) & 1).astype(bool)
    patterns = bits.reshape(-1, 4, 4)
    perms = list(itertools.permutations(range(4)))
    rows = np.arange(4)

    has_match = np.zeros(65536, dtype=bool)
    uncoupled = np.zeros(65536, dtype=bool)
    for p in perms:
        cols = list(p)
        has_match |= patterns[:, rows, cols].all(axis=1)
        perm_pattern = np.zeros((4, 4), dtype=bool)
        perm_pattern[rows, cols] = True
        uncoupled |= (patterns == perm_pattern).all(axis=(1, 2))

    upper = np.triu_indices(4, k=1)
    decoupled = np.zeros(65536, dtype=bool)
    for rp in perms:
        row_view = patterns[:, list(rp), :]
        for cp in perms:
            view = row_view[:, :, list(cp)]
            diag_full = view[:, rows, rows].all(axis=1)
            strictly_lower = ~view[:, upper[0], upper[1]].any(axis=1)
            decoupled |= diag_full & strictly_lower

    kinds = np.where(
        ~has_match, "degenerate",
        np.where(uncoupled, "uncoupled",
                 np.where(decoupled, "decoupled", "coupled")))
    return kinds, patterns


def test_criterion_05_exhaustive_agreement_with_permutation_search():
    """classify() agrees with brute-force permutation search on every
    boolean dependency pattern up to 4x4 (all 65,536 4x4 cases, plus the
    complete 1x1 through 3x3 spaces)."""
    done = _timer(30.0)
    for n in (1, 2, 3):
        for code in range(1 << (n * n)):
            mask = np.array([[(code >> (n * i + j)) & 1 == 1
                              for j in range(n)] for i in range(n)])
            assert classify(mask.astype(float)).kind == brute_force_kind(mask), \
                f"{n}x{n} pattern {code}"

    kinds, patterns = _exhaustive_4x4_kinds()
    matrices = patterns.astype(np.float64)
    for code in range(65536):
        got = classify(matrices[code]).kind
        assert got == kinds[code], f"4x4 pattern {code:016b}"
    done()


def test_criterion_06_textbook_and_faucet_fixtures_classify_correctly():
    """Diagonal / lower-triangular / full 3x3 matrices classify as
    uncoupled / decoupled (cascade order) / coupled, and the faucet
    fixtures land on their expected classes."""
    done = _timer(1.0)
    diag = [[1.1, 0.0, 0.0], [0.0, 2.2, 0.0], [0.0, 0.0, 3.3]]
    a = classify(diag)
    assert isinstance(a, Uncoupled)

    tri = [[1.1, 0.0, 0.0], [2.1, 2.2, 0.0], [3.1, 3.2, 3.3]]
    b = classify(tri)
    assert isinstance(b, Decoupled)
    assert b.order == ((0, 0), (1, 1), (2, 2))  # adjust 1st, 2nd, 3rd in turn

    full = [[1.1, 1.2, 1.3], [2.1, 2.2, 2.3], [3.1, 3.2, 3.3]]
    c = classify(full)
    assert isinstance(c, Coupled)
    assert len(c.blocks) == 1 and len(c.blocks[0]) == 3

    two_knob = load_spec("faucet_two_knob.json")
    assert isinstance(classify(two_knob.matrix), Coupled)
    mixer_tap = load_spec("faucet_mixer_tap.json")
    assert isinstance(classify(mixer_tap.matrix), Uncoupled)
    done()


def test_criterion_07_shrinking_tolerances_never_gain_probability():
    """Over a 20-point shrinking-tolerance sweep, each pdf family's success
    probability is non-increasing and its bit cost non-decreasing."""
    done = _timer(1.0)
    sweeps = [
        (Uniform(0.0, 1.0), 0.5, 0.8),
        (Normal(0.0, 1.0), 0.0, 3.0),
        (Triangular(0.0, 0.5, 1.0), 0.5, 0.8),
        (Empirical([float(v) for v in np.linspace(-1.0, 1.0, 41)]), 0.0, 1.5),
    ]
    for pdf, center, widest in sweeps:
        tols = np.linspace(widest, widest / 1000.0, 20)
        results = [fr_information(pdf, DesignRange(center, t, t)) for t in tols]
        probs = [r.probability for r in results]
        bits = [r.bits for r in results]
        for i in range(19):
            assert probs[i + 1] <= probs[i] + 1e-15, pdf.describe()
            assert bits[i + 1] >= bits[i] - 1e-12, pdf.describe()
    done()


def test_criterion_08_finite_differences_recover_hidden_sensitivities():
    """Probing a hidden linear map recovers its matrix to 1e-9; the slope
    of x^2 at x=3 with step 1e-4 comes out 6 to 1e-6."""
    done = _timer(1.0)
    rng = np.random.default_rng(77)
    hidden = rng.normal(size=(3, 4))
    model = LinearModel(hidden, [Uniform(0.0, 1.0)] * 4)
    est = estimate_design_matrix(model, rng.uniform(0.5, 2.0, size=4), step=1e-3)
    assert float(np.abs(est - hidden).max()) < 1e-9

    quad = SimpleNamespace(evaluate=lambda d: np.array([d[0] ** 2]))
    slope = estimate_design_matrix(quad, [3.0], step=1e-4)[0, 0]
    assert abs(slope - 6.0) < 1e-6
    done()


def test_criterion_09_tank_pipeline_bits_grow_with_coupling_gain():
    """End-to-end scenario sweep: with no cross-channel gain the empirical
    system bits stay at/near zero (<= 0.02 at 1e4 cycles); raising the
    mixer-to-temperature gain over {0, 0.05, 0.1, 0.2} at a fixed seed
    never decreases the bits and leaves them strictly positive at the top."""
    done = _timer(30.0)
    spec = load_spec("tank.json")
    bits = []
    for gain in (0.0, 0.05, 0.1, 0.2):
        cfg = replace(spec.scenario, mixer_to_temp=gain, cycles=10_000)
        rows = simulate_tank(cfg, RngState(seed=11)).values
        report = system_information_from_samples(rows, spec.frs)
        bits.append(report.system_bits)
    assert bits[0] <= 0.02, bits
    for lo, hi in zip(bits, bits[1:]):
        assert hi >= lo - 1e-12, bits
    assert bits[-1] > 0.0, bits
    done()


def test_criterion_10_cli_reports_are_byte_identical_across_processes():
    """Two separate interpreter processes running the same Monte Carlo
    analysis emit byte-identical JSON."""
    done = _timer(10.0)
    cmd = [
        sys.executable, "-m", "axdesign", "info",
        str(fixture_path("faucet_two_knob.json")),
        "--seed", "42", "--samples", "100000",
    ]
    first = subprocess.run(cmd, capture_output=True, timeout=60)
    second = subprocess.run(cmd, capture_output=True, timeout=60)
    assert first.returncode == 0, first.stderr.decode()
    assert second.returncode == 0
    assert first.stdout == second.stdout
    assert len(first.stdout) > 0
    done()
