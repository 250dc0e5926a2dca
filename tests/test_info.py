"""Information measures: closed-form values, Monte Carlo routes, and the
identities that tie the three estimation routes together.

Expected values marked "oracle:" were computed independently with mpmath at
40-digit precision (rounded to float64) or by closed-form geometry/counting;
they are frozen rather than recomputed from package code.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
import time
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from axdesign import (
    DesignRange,
    LinearModel,
    McConfig,
    Normal,
    ScenarioModel,
    TankConfig,
    Uniform,
    bits_from_probability,
    conditional_chain_information,
    fr_information,
    info,
    system_information_from_samples,
    system_information_independent,
    system_information_joint,
)

from axdesign import propagation
from axdesign.errors import NonFiniteSamples
from axdesign.info import InfoResult
from axdesign.model import FunctionalRequirement
from axdesign.propagation import _CHUNK_ROWS as C
from axdesign.tank import MAX_CYCLES

from conftest import load_spec, make_frs

# oracle: mpmath, P = ncdf(1) - ncdf(-1)
P_1SIGMA = 0.6826894921370859
# oracle: mpmath, -log2(P_1SIGMA)
BITS_1SIGMA = 0.5506985486022824
# oracle: mpmath, -log2(3/4)
BITS_075 = 0.4150374992788438
# oracle: mpmath, -log2(3/4) + -log2(P_1SIGMA)
SUM_BITS = 0.9657360478811262
# oracle: mpmath, P_1SIGMA squared (two independent one-sigma bands)
P_1SIGMA_SQ = 0.46606494267439225
# oracle: mpmath, -log2(P_1SIGMA^2) = 2 * BITS_1SIGMA
BITS_1SIGMA_SQ = 1.1013970972045648


# ---------------------------------------------------------------------------
# bits_from_probability conventions


def test_probability_one_costs_exactly_zero_bits():
    assert bits_from_probability(1.0) == 0.0


def test_probability_zero_costs_infinite_bits():
    assert bits_from_probability(0.0) == math.inf


def test_powers_of_two_give_integer_bits():
    assert bits_from_probability(0.5) == 1.0
    assert bits_from_probability(0.25) == 2.0
    assert bits_from_probability(0.125) == 3.0


def test_probability_outside_unit_interval_is_rejected():
    with pytest.raises(ValueError):
        bits_from_probability(-0.1)
    with pytest.raises(ValueError):
        bits_from_probability(1.1)
    with pytest.raises(ValueError):
        bits_from_probability(math.nan)


# ---------------------------------------------------------------------------
# Single-requirement closed form


def test_uniform_overlap_annotated_example():
    res = fr_information(Uniform(0.9, 1.1), DesignRange(1.05, 0.1, 0.1))
    assert res.probability == pytest.approx(0.75, abs=1e-12)
    assert res.bits == pytest.approx(BITS_075, rel=1e-12)
    assert res.std_error == 0.0


def test_normal_one_sigma_annotated_example():
    res = fr_information(Normal(65.0, 0.5), DesignRange(65.0, 0.5, 0.5))
    assert res.probability == pytest.approx(P_1SIGMA, rel=1e-14)
    assert res.bits == pytest.approx(BITS_1SIGMA, rel=1e-12)


def test_range_fully_inside_support_costs_zero_bits():
    res = fr_information(Uniform(2.0, 3.0), DesignRange(5.0, 5.0, 5.0))
    assert res.probability == 1.0
    assert res.bits == 0.0


def test_disjoint_range_costs_infinite_bits():
    res = fr_information(Uniform(2.0, 3.0), DesignRange(5.5, 0.5, 0.5))
    assert res.probability == 0.0
    assert res.bits == math.inf


# ---------------------------------------------------------------------------
# Independent combination: probabilities multiply, bits add


def test_independent_bits_add():
    frs = (FunctionalRequirement("a", DesignRange(1.05, 0.1, 0.1)),
           FunctionalRequirement("b", DesignRange(65.0, 0.5, 0.5)))
    results = [
        fr_information(Uniform(0.9, 1.1), frs[0].design_range),
        fr_information(Normal(65.0, 0.5), frs[1].design_range),
    ]
    report = system_information_independent(results, frs)
    assert report.method == "analytic"
    assert report.system_bits == pytest.approx(SUM_BITS, rel=1e-12)
    assert report.system_probability == pytest.approx(0.75 * P_1SIGMA, rel=1e-12)
    assert report.mc is None
    assert report.frs == frs


def test_all_certain_system_costs_zero_bits():
    report = system_information_independent([InfoResult(1.0, 0.0)] * 3,
                                            make_frs(*[(0.0, 1.0)] * 3))
    assert report.system_probability == 1.0
    assert report.system_bits == 0.0


def test_two_coin_flips_cost_two_bits():
    half = InfoResult(0.5, bits_from_probability(0.5))
    report = system_information_independent([half, half], make_frs((0.0, 1.0), (0.0, 1.0)))
    assert report.system_probability == 0.25
    assert report.system_bits == 2.0


def test_one_impossible_requirement_dooms_the_system():
    report = system_information_independent(
        [InfoResult(1.0, 0.0), InfoResult(0.0, math.inf)], make_frs((0.0, 1.0), (0.0, 1.0)))
    assert report.system_probability == 0.0
    assert report.system_bits == math.inf


def test_empty_result_list_is_rejected():
    with pytest.raises(ValueError):
        system_information_independent([], [])


# ---------------------------------------------------------------------------
# Monte Carlo configuration


def test_mc_config_validation():
    with pytest.raises(ValueError):
        McConfig(seed=-1)
    with pytest.raises(ValueError):
        McConfig(n_samples=0)
    with pytest.raises(ValueError):
        McConfig(seed=True)  # booleans are not seeds
    with pytest.raises(ValueError, match="^n_samples must be a positive integer$"):
        McConfig(n_samples=True)
    with pytest.raises(ValueError, match="^seed must be a non-negative integer$"):
        McConfig(seed=1.0)
    assert McConfig().n_samples == 100_000


# ---------------------------------------------------------------------------
# Joint Monte Carlo


def _one_sigma_pair() -> tuple[LinearModel, tuple]:
    model = LinearModel(np.eye(2), [Normal(65.0, 0.5), Normal(65.0, 0.5)])
    return model, make_frs((64.5, 65.5), (64.5, 65.5), ids=("t1", "t2"))


def test_joint_estimate_matches_independent_product():
    model, frs = _one_sigma_pair()
    mc = McConfig(seed=0, n_samples=100_000)
    report = system_information_joint(model, frs, mc)
    assert report.method == "joint"
    assert report.mc.seed == 0
    assert report.mc.n_samples == 100_000
    # True joint here is the product of the marginals (independent DPs,
    # identity map): 3-sigma binomial band around the frozen oracle.
    se_p = math.sqrt(P_1SIGMA_SQ * (1.0 - P_1SIGMA_SQ) / 100_000)
    assert abs(report.system_probability - P_1SIGMA_SQ) < 3.0 * se_p
    assert abs(report.system_bits - BITS_1SIGMA_SQ) < 3.0 * report.mc.std_error
    for row in report.per_fr:
        se_m = math.sqrt(P_1SIGMA * (1.0 - P_1SIGMA) / 100_000)
        assert abs(row.probability - P_1SIGMA) < 3.0 * se_m
        assert row.std_error > 0.0


def test_joint_is_reproducible_for_a_seed():
    model, frs = _one_sigma_pair()
    a = system_information_joint(model, frs, McConfig(seed=11, n_samples=2000))
    b = system_information_joint(model, frs, McConfig(seed=11, n_samples=2000))
    assert a == b
    c = system_information_joint(model, frs, McConfig(seed=12, n_samples=2000))
    assert c.system_probability != a.system_probability


def test_joint_with_no_inside_samples_warns_and_reports_infinite_bits():
    model = LinearModel(np.eye(1), [Uniform(0.0, 1.0)])
    report = system_information_joint(model, make_frs((5.0, 6.0)),
                                      McConfig(seed=1, n_samples=500))
    assert report.system_probability == 0.0
    assert report.system_bits == math.inf
    assert report.mc.std_error == math.inf
    assert any("no samples" in w for w in report.warnings)


def test_joint_requires_at_least_one_range():
    model, _ = _one_sigma_pair()
    with pytest.raises(ValueError):
        system_information_joint(model, [])


# ---------------------------------------------------------------------------
# Shared-parameter geometry: joint probability below the marginal product


def test_shared_knob_joint_probability_matches_grid_quadrature():
    """Two outputs driven by the same two knobs.

    flow = 2h + 2c with h, c ~ U(1.25, 1.75); band [5.5, 6.5].
    balance = 8h - 8c; band [-2, 2].
    Geometry oracle: in (h+c, h-c) coordinates the acceptance region is a
    box inscribed in the support diamond with exactly half its area, so the
    true joint probability is 0.5 while the marginals are 0.75 each.
    A midpoint-grid quadrature cross-checks the geometry here.
    """
    spec = load_spec("faucet_two_knob.json")
    model = LinearModel(spec.matrix, [dp.uncertainty for dp in spec.dps])

    # Independent quadrature oracle over the knob square.
    grid = (np.arange(2000) + 0.5) / 2000.0 * 0.5 + 1.25
    h, c = np.meshgrid(grid, grid, indexing="ij")
    flow_ok = np.abs(2.0 * h + 2.0 * c - 6.0) <= 0.5
    balance_ok = np.abs(8.0 * h - 8.0 * c) <= 2.0
    quad = float((flow_ok & balance_ok).mean())
    assert quad == pytest.approx(0.5, abs=1e-3)

    mc = McConfig(seed=42, n_samples=100_000)
    report = system_information_joint(model, spec.frs, mc)
    se_p = math.sqrt(0.5 * 0.5 / mc.n_samples)
    assert abs(report.system_probability - 0.5) < 3.0 * se_p

    # The marginal product overstates success when the knobs are shared:
    product = report.per_fr[0].probability * report.per_fr[1].probability
    assert report.system_probability < product
    # and the analytic marginals are exactly 0.75 each (triangular bands).
    analytic = [fr_information(spec.system_pdfs[fr.id], fr.design_range)
                for fr in spec.frs]
    for res in analytic:
        assert res.probability == pytest.approx(0.75, rel=1e-12)


# ---------------------------------------------------------------------------
# Conditional chain


def _cascade_model() -> tuple[LinearModel, tuple]:
    matrix = [[1.0, 0.0], [0.8, 1.0]]
    model = LinearModel(matrix, [Normal(0.0, 1.0), Normal(0.0, 1.0)])
    return model, make_frs((-1.0, 1.0), (-2.0, 2.0), ids=("up", "down"))


def test_chain_total_equals_joint_for_the_same_seed():
    model, frs = _cascade_model()
    mc = McConfig(seed=5, n_samples=50_000)
    joint = system_information_joint(model, frs, mc)
    chain = conditional_chain_information(model, [0, 1], frs, mc)
    assert chain.method == "chain"
    # Same sample stream, so survival of every link IS the joint event.
    assert chain.system_probability == joint.system_probability
    # The first link is unconditional, i.e. the joint marginal.
    assert chain.per_fr[0] == joint.per_fr[0]
    # Bits side: the link product telescopes, so the bit sum equals the
    # joint bits up to float rounding.
    assert chain.system_bits == pytest.approx(joint.system_bits, rel=1e-9)


def test_chain_link_probabilities_telescope_exactly():
    model, frs = _cascade_model()
    chain = conditional_chain_information(
        model, [0, 1], frs, McConfig(seed=9, n_samples=20_000))
    product = 1.0
    for link in chain.per_fr:
        product *= link.probability
    assert product == pytest.approx(chain.system_probability, rel=1e-12)


def test_chain_total_is_order_invariant():
    model, frs = _cascade_model()
    mc = McConfig(seed=7, n_samples=30_000)
    forward = conditional_chain_information(model, [0, 1], frs, mc)
    backward = conditional_chain_information(model, [1, 0], frs, mc)
    assert forward.system_probability == backward.system_probability
    assert forward.system_bits == pytest.approx(backward.system_bits, rel=1e-9)
    # But the per-link decomposition legitimately differs.
    assert forward.per_fr != backward.per_fr


def test_chain_rows_follow_the_chain_order():
    model, frs = _cascade_model()
    mc = McConfig(seed=3, n_samples=5_000)
    report = conditional_chain_information(model, [1, 0], frs, mc)
    assert report.frs == frs[::-1]  # chain rows follow chain order


def test_chain_accepts_numpy_integer_order():
    model, frs = _cascade_model()
    mc = McConfig(seed=3, n_samples=5_000)
    order = np.argsort([2.0, 1.0])  # int64 entries: [1, 0]
    assert conditional_chain_information(model, order, frs, mc) == \
        conditional_chain_information(model, [1, 0], frs, mc)


def test_chain_order_validation():
    model, frs = _cascade_model()
    with pytest.raises(ValueError, match="permutation"):
        conditional_chain_information(model, [0, 0], frs)
    for bad in (["a", "b"], [True, False], [np.True_, np.False_], [1.0, 0.0]):
        with pytest.raises(ValueError, match="order entries must be FR indices"):
            conditional_chain_information(model, bad, frs)


def test_chain_starvation_reports_downstream_links_as_unbounded():
    model = LinearModel(np.eye(2), [Uniform(0.0, 1.0), Uniform(0.0, 1.0)])
    frs = make_frs((5.0, 6.0), (0.0, 1.0), ids=("impossible", "easy"))
    report = conditional_chain_information(  # the first link is impossible
        model, [0, 1], frs, McConfig(seed=2, n_samples=1000))
    assert report.per_fr[0].probability == 0.0
    assert report.per_fr[1] == InfoResult(0.0, math.inf, math.inf)
    assert report.system_bits == math.inf
    assert report.system_probability == 0.0
    assert any("starvation" in w and "impossible" in w for w in report.warnings)


def test_chain_with_no_sample_in_every_range_warns_as_the_joint_route_does():
    # Every link keeps survivors but the last, so nothing starves: the
    # chain still says why its system bits are unbounded.
    model = LinearModel(np.eye(2), [Normal(0.0, 1.0), Normal(0.0, 1.0)])
    frs = make_frs((-1.0, 1.0), (49.5, 50.5))
    mc = McConfig(seed=4, n_samples=2000)
    joint = system_information_joint(model, frs, mc)
    chain = conditional_chain_information(model, [0, 1], frs, mc)
    assert chain.system_bits == joint.system_bits == math.inf
    assert chain.per_fr[0].probability > 0.0
    assert chain.warnings == joint.warnings == (
        "no samples landed inside all design ranges (2000 drawn); "
        "system bits are unbounded at this sample size",)


# ---------------------------------------------------------------------------
# Runs split into parts on many CPUs

class _Faulty:
    """A chunked model of FRs a and b that records the chunks it draws.
    Column b is infinite in chunk 5 and column a from chunk 9 on, so a
    serial run fails in chunk 5, naming b. The chunks in ``slow`` take
    50 ms each."""

    chunk_rows = C

    def __init__(self, slow):
        self.slow = slow
        self.drawn = []

    def sample_frs(self, stream, n, start):
        chunk = start // C
        if chunk in self.slow:
            time.sleep(0.05)
        table = np.zeros((n, 2))
        table[:, 1] = math.inf if chunk == 5 else 0.0
        table[:, 0] = math.inf if chunk >= 9 else 0.0
        self.drawn.append(chunk)
        return table


# A slow chunk before chunk 5 lets the part holding chunk 9 fail first;
# slow chunks after it keep that part running once the other has failed.
@pytest.mark.parametrize("slow", [(4,), (6, 7, 8)], ids=["early", "late"])
@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_a_failing_run_raises_the_earliest_failure_once_every_part_stops(set_cpus, cpus, slow):
    set_cpus(cpus)
    model = _Faulty(slow)
    with pytest.raises(NonFiniteSamples, match="FR b"):
        system_information_joint(model, make_frs(*[(-1.0, 1.0)] * 2, ids=("a", "b")),
                                 McConfig(n_samples=13 * C))
    # The last part fails in chunk 9, after the slow chunks.
    assert (9 in model.drawn) == (cpus > 1)


_FORKED_RUN = """
import os
import signal
import numpy as np
from axdesign import DesignRange, LinearModel, McConfig, Uniform, info, system_information_joint
from axdesign.model import FunctionalRequirement

info._CPUS = 2
model = LinearModel(np.eye(2), [Uniform(0.0, 1.0)] * 2)
frs = [FunctionalRequirement(i, DesignRange(0.25, 0.25, 0.25)) for i in "ab"]

def report():
    return system_information_joint(model, frs, McConfig(n_samples=3 * 8192))

parent = report()  # leaves a pool whose thread the child does not inherit
pid = os.fork()
if pid == 0:
    signal.alarm(30)  # a hung child ends itself
    os._exit(0 if report() == parent else 1)
print(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
"""


def test_a_forked_child_scores_parts_on_a_pool_of_its_own():
    # The child would wait forever on the parent's pool, whose thread it
    # does not have.
    src = str(Path(info.__file__).resolve().parent.parent)
    result = subprocess.run([sys.executable, "-c", _FORKED_RUN], capture_output=True,
                            text=True, env=dict(os.environ, PYTHONPATH=src), timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "0\n"


# ---------------------------------------------------------------------------
# Precomputed sample tables


def test_sample_table_counts_exactly():
    samples = np.array([[0.0, 0.0], [0.0, 5.0], [5.0, 0.0], [5.0, 5.0]])
    report = system_information_from_samples(samples, make_frs((-1.0, 1.0), (-1.0, 1.0)))
    assert report.per_fr[0].probability == 0.5
    assert report.per_fr[1].probability == 0.5
    assert report.system_probability == 0.25
    assert report.system_bits == 2.0
    assert report.mc.seed is None
    assert report.mc.n_samples == 4
    # oracle: binomial-to-bits error propagation, se_p/(p*ln2) with
    # se_p = sqrt(0.25*0.75/4), p = 0.25.
    assert report.mc.std_error == pytest.approx(1.2494105553236716, rel=1e-12)
    # oracle: same formula at p = 0.5, n = 4: 0.25/(0.5*ln2) = 1/(2*ln2).
    assert report.per_fr[0].std_error == pytest.approx(0.7213475204444817, rel=1e-12)


def test_sample_table_certain_rows_have_zero_error():
    samples = np.zeros((10, 1))
    report = system_information_from_samples(samples, make_frs((-1.0, 1.0)))
    assert report.system_probability == 1.0
    assert report.system_bits == 0.0
    assert report.mc.std_error == 0.0


_ROUTES = {
    "analytic": lambda r: fr_information(Uniform(-1.0, 1.0), r),
    "joint": lambda r: system_information_joint(
        LinearModel(np.eye(1), [Uniform(-1.0, 1.0)]), [r], McConfig(n_samples=10)),
    "chain": lambda r: conditional_chain_information(
        LinearModel(np.eye(1), [Uniform(-1.0, 1.0)]), [0], [r], McConfig(n_samples=10)),
    "samples": lambda r: system_information_from_samples(np.zeros((4, 1)), [r]),
}


# A range is a DesignRange, carried by an FR: a (lo, hi) pair is refused
# whatever its bounds.
@pytest.mark.parametrize("pair", [(0.5, -0.5), (0, 10**400), (math.nan, 1.0), (True, 2)],
                         ids=["reversed", "big_int", "nan", "bool"])
@pytest.mark.parametrize("route", sorted(_ROUTES))
def test_every_route_rejects_a_bad_range_pair(route, pair):
    with pytest.raises(ValueError, match="^(design_range must be a DesignRange|frs must be)"):
        _ROUTES[route](pair)


def _fr_routes():
    """Each route on two FRs' worth of results or samples, taking ``frs``
    as its one argument."""
    model, frs = _one_sigma_pair()
    mc = McConfig(n_samples=10)
    results = [fr_information(Uniform(-1.0, 1.0), fr.design_range) for fr in frs]
    return {
        "analytic": lambda frs: system_information_independent(results, frs),
        "joint": lambda frs: system_information_joint(model, frs, mc),
        "chain": lambda frs: conditional_chain_information(model, [1, 0], frs, mc),
        "samples": lambda frs: system_information_from_samples(np.zeros((4, 2)), frs),
    }


@pytest.mark.parametrize("count", [1, 3], ids=["too_few", "too_many"])
@pytest.mark.parametrize("route", sorted(_fr_routes()))
def test_every_route_wants_one_fr_per_column(route, count):
    run = _fr_routes()[route]
    with pytest.raises(ValueError):
        run(make_frs(*[(-1.0, 1.0)] * count))
    frs = make_frs((-1.0, 1.0), (-2.0, 2.0))
    assert run(frs).frs in {frs, frs[::-1]}


_NOT_FRS = {
    "empty": [],
    "ids": ["x0", "x1"],
    "ranges": [DesignRange(0.0, 1.0, 1.0)] * 2,
    "one_none": [FunctionalRequirement("x0", DesignRange(0.0, 1.0, 1.0)), None],
}


@pytest.mark.parametrize("frs", sorted(_NOT_FRS))
@pytest.mark.parametrize("route", sorted(_fr_routes()))
def test_every_route_refuses_frs_that_are_not_functional_requirements(route, frs):
    with pytest.raises(ValueError,
                       match="^frs must be a non-empty sequence of FunctionalRequirements$"):
        _fr_routes()[route](_NOT_FRS[frs])


_BAD_ANALYTIC_INPUTS = {
    "pdf_none": (lambda: fr_information(None, DesignRange(0.0, 1.0, 1.0)),
                 "^pdf must be a Pdf$"),
    "pdf_float": (lambda: fr_information(0.5, DesignRange(0.0, 1.0, 1.0)),
                  "^pdf must be a Pdf$"),
    "result_float": (lambda: system_information_independent([0.5], make_frs((0.0, 1.0))),
                     "^results must be a sequence of InfoResults$"),
    "result_none": (lambda: system_information_independent(
        [InfoResult(1.0, 0.0), None], make_frs((0.0, 1.0), (0.0, 1.0))),
        "^results must be a sequence of InfoResults$"),
}


@pytest.mark.parametrize("case", sorted(_BAD_ANALYTIC_INPUTS))
def test_the_analytic_route_names_a_bad_pdf_or_result(case):
    call, message = _BAD_ANALYTIC_INPUTS[case]
    with pytest.raises(ValueError, match=message):
        call()


@pytest.mark.parametrize("route", ["joint", "chain"])
def test_a_scenario_run_past_the_cycle_cap_fails_at_once(route):
    # The tank run is one chunk, so the cap is checked before any cycle is
    # simulated: a chunk of MAX_CYCLES rows would first simulate 10**7
    # cycles, about two minutes.
    model = ScenarioModel(TankConfig())
    frs = make_frs((0.0, 10.0), (60.0, 70.0), (100.0, 140.0))
    mc = McConfig(n_samples=MAX_CYCLES + 1)
    run = {"joint": lambda: system_information_joint(model, frs, mc),
           "chain": lambda: conditional_chain_information(model, [0, 1, 2], frs, mc)}
    began = time.perf_counter()
    with mock.patch.object(propagation, "simulate", side_effect=AssertionError("simulated")), \
            pytest.raises(ValueError, match=f"^cycles must be an integer in \\[1, {MAX_CYCLES}\\]$"):
        run[route]()
    assert time.perf_counter() - began < 0.5


def test_sample_table_validation():
    with pytest.raises(ValueError, match="shape"):
        system_information_from_samples(np.zeros((4, 3)), make_frs((-1.0, 1.0)))
    with pytest.raises(ValueError, match="^sample values of FR x0 are not all finite$"):
        system_information_from_samples(np.array([[math.inf]]), make_frs((-1.0, 1.0)))
    with pytest.raises(ValueError, match="at least one sample"):
        system_information_from_samples(np.zeros((0, 1)), make_frs((-1.0, 1.0)))
