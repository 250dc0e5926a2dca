"""Information content of functional requirements, in bits.

The information attached to one FR is ``-log2(P)`` where P is the
probability that the realized output lands inside the FR's design range.
Certain success costs zero bits; impossible success costs infinitely many.
System-level information adds across FRs exactly when their success events
are independent; otherwise it must be estimated from joint behaviour.

Estimation routes, each taking the FRs it scores as ``frs``, a non-empty
sequence of :class:`~axdesign.model.FunctionalRequirement` such as a
spec's ``frs``, and returning a report that carries them in row order:

* :func:`system_information_independent` ``(results, frs)`` — combine
  closed-form per-FR results (from :func:`fr_information`) under
  independence: probabilities multiply, bits add (an infinite term absorbs
  the sum).
* :func:`system_information_joint` ``(model, frs, mc)`` — Monte Carlo over
  a sampling model; the system probability is the fraction of sampled
  outcome vectors inside every design range simultaneously. Valid for any
  dependence structure. :func:`system_information_from_samples`
  ``(samples, frs, seed)`` is the same estimator applied to an
  already-drawn sample table.
* :func:`conditional_chain_information` ``(model, order, frs, mc)`` — a
  product of conditional success probabilities along a given FR order
  (indices into ``frs``, as :func:`~axdesign.coupling.sequence` gives
  them), each link estimated from the samples that already satisfied every
  earlier link (rejection conditioning on one shared sample set). The link
  product telescopes to the joint count, so chain and joint totals agree
  for the same seed; the chain additionally shows what each requirement
  costs once its predecessors are met. The estimator accepts any ordering, but only
  orderings that respect the dependency structure (e.g. a decoupled
  adjustment sequence) make the per-link numbers individually meaningful.

Monte Carlo standard errors are binomial on the probability scale and
mapped to bits by the delta method (divide by ``p * ln 2``); a zero
estimate has infinite bits-scale error, a certain one has zero.

The Monte Carlo routes sample a :class:`~axdesign.propagation.LinearModel`
or a :class:`~axdesign.propagation.ScenarioModel`, through the
``chunk_rows`` and ``sample_frs`` the two share: the model is sampled
``chunk_rows`` rows at a time, as ``sample_frs(stream, rows, start)``,
where ``stream(k)`` is substream k of the run's seed; each chunk is
scored before the next is drawn. A chunk holds the rows ``start …
start+rows-1`` of the one-call table, so the counts, and the reports, do
not depend on the chunking, and the memory of a linear-model run (8192
rows a chunk) does not grow with the sample count. The tank model, whose
rows are consecutive cycles of one run, has ``chunk_rows = None``: its
whole run is one chunk.

A linear-model run of more than one chunk is scored on every CPU the
process may use: its chunks are split into contiguous parts, one per CPU
(at most one per chunk). The calling thread scores part 0 and a pool of
one thread fewer than the CPU count, made on first use, scores the rest.
Each part opens each substream it reads once, at the part's first row,
with ``RngState.generator(start)``, which costs the same at any row, and
reads it on in order through its chunks; no generator is shared between
threads. So a part draws exactly the rows a serial run draws for its
chunks. Each part returns integer counts, and integer sums do not depend
on the order they are added in, so the summed counts, and the reports,
are those of a serial run on any number of CPUs. When parts fail, the
failure of the earliest rows is raised, after every part has stopped.
One-chunk runs, every tank-model run among them, and one-CPU hosts stay
on the calling thread and start no thread. Any model with ``chunk_rows``
set is split so, not only :class:`~axdesign.propagation.LinearModel`:
its ``sample_frs(stream, rows, start)`` is called from several threads
at once, and within a part in row order, so it must be safe to call that
way, and must read ``rows`` values from each stream it reads.

Every route scores samples with one streaming tally: per-FR hits, and for
each link of an FR order the rows inside every range so far (the joint
route uses declaration order, so its last link is the joint count). A
sample value that is not finite, for instance a linear model whose finite
entries overflow float64, raises :class:`~axdesign.errors.NonFiniteSamples`
naming the FR.
"""

from __future__ import annotations

import functools
import math
import operator
import os
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .distributions import Pdf, RngState, float64_array, is_count
from .errors import NonFiniteSamples
from .model import DesignRange, FunctionalRequirement, range_bounds

__all__ = [
    "InfoResult",
    "McConfig",
    "McStats",
    "SystemInfoReport",
    "bits_from_probability",
    "fr_information",
    "system_information_independent",
    "system_information_joint",
    "system_information_from_samples",
    "conditional_chain_information",
]

_LN2 = math.log(2.0)


def bits_from_probability(p: float) -> float:
    """``-log2(p)`` with the conventions 0 -> inf and 1 -> 0.0 exactly."""
    if not (0.0 <= p <= 1.0):
        raise ValueError(f"probability {p!r} outside [0, 1]")
    if p == 0.0:
        return math.inf
    if p == 1.0:
        return 0.0
    return -math.log2(p)


@dataclass(frozen=True)
class InfoResult:
    """Success probability and its cost in bits for one requirement.

    ``std_error`` is the bits-scale standard error of ``bits``; it is 0.0
    for closed-form results, and for Monte Carlo results it is infinite
    when the probability estimate is zero.
    """

    probability: float
    bits: float
    std_error: float = 0.0


@dataclass(frozen=True)
class McConfig:
    """Monte Carlo settings: the RNG seed and the number of samples."""

    seed: int = 0
    n_samples: int = 100_000

    def __post_init__(self):
        RngState(self.seed)  # the one seed rule
        if not is_count(self.n_samples):
            raise ValueError("n_samples must be a positive integer")


@dataclass(frozen=True)
class McStats:
    """Provenance of a Monte Carlo estimate: seed (None when the samples
    were supplied by the caller), sample count, and the bits-scale standard
    error of the system total."""

    seed: int | None
    n_samples: int
    std_error: float


@dataclass(frozen=True)
class SystemInfoReport:
    """Per-FR and system-level information from one estimation run.

    ``method`` is the route as ``--method`` names it: analytic, chain or joint.
    ``per_fr`` rows follow FR declaration order for the analytic and joint
    routes; for the conditional chain they follow the chain order and each
    row is conditional on its predecessors. ``frs`` holds the FR of each
    row, in row order, one per row; ValueError otherwise. ``mc`` is ``None``
    for closed-form results.
    """

    method: str
    per_fr: tuple[InfoResult, ...]
    frs: tuple[FunctionalRequirement, ...]
    system_probability: float
    system_bits: float
    mc: McStats | None = None
    warnings: tuple[str, ...] = ()

    def __post_init__(self):
        if len(self.frs) != len(self.per_fr):
            raise ValueError(f"{len(self.frs)} FRs for {len(self.per_fr)} rows")


def fr_information(pdf: Pdf, design_range: DesignRange) -> InfoResult:
    """Closed-form information for one FR: the :class:`Pdf`'s mass over its
    :class:`~axdesign.model.DesignRange`; ValueError for any other pdf or
    range."""
    if not isinstance(pdf, Pdf):
        raise ValueError("pdf must be a Pdf")
    if not isinstance(design_range, DesignRange):
        raise ValueError("design_range must be a DesignRange")
    lo, hi = range_bounds(design_range)
    p = min(max(pdf.interval_probability(lo, hi), 0.0), 1.0)
    return InfoResult(probability=p, bits=bits_from_probability(p))


def _checked_frs(frs) -> tuple[FunctionalRequirement, ...]:
    """``frs`` as a tuple; ValueError unless it is a non-empty sequence of
    FunctionalRequirements."""
    frs = tuple(frs)
    if not frs or not all(isinstance(fr, FunctionalRequirement) for fr in frs):
        raise ValueError("frs must be a non-empty sequence of FunctionalRequirements")
    return frs


def system_information_independent(
    results: Sequence[InfoResult],
    frs: Sequence[FunctionalRequirement],
) -> SystemInfoReport:
    """Combine per-FR results, one for each FR of ``frs``, under independence.

    The system probability is the product of the per-FR probabilities and
    the system bits are their sum (the same number up to float rounding;
    an infinite term makes both degenerate consistently). ValueError unless
    every result is an :class:`InfoResult`.
    """
    results, frs = tuple(results), _checked_frs(frs)
    if not all(isinstance(res, InfoResult) for res in results):
        raise ValueError("results must be a sequence of InfoResults")
    total_p = 1.0
    total_bits = 0.0
    for res in results:
        total_p *= res.probability
        total_bits += res.bits
    return SystemInfoReport(
        method="analytic", per_fr=results, frs=frs,
        system_probability=total_p, system_bits=total_bits)


def _mc_result(hits: int, n: int) -> InfoResult:
    p = hits / n
    se_p = math.sqrt(p * (1.0 - p) / n)
    bits = bits_from_probability(p)
    if p == 0.0:
        se_bits = math.inf
    elif p == 1.0:
        se_bits = 0.0
    else:
        se_bits = se_p / (p * _LN2)
    return InfoResult(probability=p, bits=bits, std_error=se_bits)


def _tally(tables, frs, order) -> tuple[int, list[int], list[int]]:
    """Score sample tables chunk by chunk against the FRs' design ranges.

    ``tables`` is an iterable of (rows, m) arrays, the chunks of one sample
    table. Returns ``(n, hits, links)``: the row count, the rows inside
    each FR's range (declaration order), and for each position k of
    ``order`` the rows inside the ranges of ``order[:k+1]`` at once. The
    links are the chain's survivors after each link, so ``links[-1]`` is the
    joint count. Only one chunk's worth of masks is held at a time.
    """
    bounds = [range_bounds(fr.design_range) for fr in frs]
    m = len(bounds)
    n = 0
    hits = [0] * m
    links = [0] * m
    for table in tables:
        arr = float64_array(table)
        if arr.ndim != 2 or arr.shape[1] != m:
            raise ValueError(f"sample table has shape {arr.shape}, expected (n, {m})")
        n += arr.shape[0]
        alive = None
        for k, j in enumerate(order):
            col = arr[:, j]
            if not np.isfinite(col).all():
                raise NonFiniteSamples(f"sample values of FR {frs[j].id} are not all finite")
            lo, hi = bounds[j]
            inside = col >= lo
            inside &= col <= hi
            hits[j] += int(np.count_nonzero(inside))
            if alive is None:
                alive = inside
            else:
                alive &= inside
            links[k] += int(np.count_nonzero(alive))
    if n < 1:
        raise ValueError("at least one sample row is required")
    return n, hits, links


def _tables(model, mc: McConfig, chunks: range | None = None):
    """The model's sample table for ``mc``: ``chunk_rows`` rows at a time,
    or all in one chunk when ``chunk_rows`` is None. ``chunks`` picks chunk
    indices (all of them by default); each substream read is opened once,
    at the first chunk's row."""
    rng = RngState(seed=mc.seed)
    n = mc.n_samples
    starts = range(0, n, model.chunk_rows or n)
    if chunks is not None:
        starts = starts[chunks.start:chunks.stop]
    stream = functools.cache(lambda k: rng.substream(k).generator(starts[0]))
    for start in starts:
        yield model.sample_frs(stream, min(starts.step, n - start), start)


def _cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


_CPUS = _cpu_count()


@functools.cache
def _executor(pid: int, threads: int):
    """The pool that scores parts 1 and on, made on first use. It is keyed
    by the process id because a forked child has none of its threads."""
    from concurrent.futures import ThreadPoolExecutor
    return ThreadPoolExecutor(threads)


def _draw_tally(model, frs, order, mc: McConfig):
    n_chunks = -(-mc.n_samples // (model.chunk_rows or mc.n_samples))
    parts = min(_CPUS, n_chunks)
    cuts = [n_chunks * i // parts for i in range(parts + 1)]

    def score(i):
        chunks = range(cuts[i], cuts[i + 1])
        return _tally(_tables(model, mc, chunks), frs, order)

    futures = [_executor(os.getpid(), _CPUS - 1).submit(score, i)
               for i in range(1, parts)]
    try:
        counts = [score(0)]
    finally:
        for future in futures:
            future.exception()  # waits for the part without raising
    counts += [future.result() for future in futures]  # raises in row order
    n = sum(c[0] for c in counts)
    hits = [sum(col) for col in zip(*(c[1] for c in counts))]
    links = [sum(col) for col in zip(*(c[2] for c in counts))]
    if n != mc.n_samples:
        raise ValueError(f"model produced {n} sample rows, expected {mc.n_samples}")
    return hits, links


def _unbounded(n: int, joint_hits: int) -> list[str]:
    """The warning of a run in which no sample met every range at once."""
    return [] if joint_hits else [f"no samples landed inside all design ranges ({n} drawn); "
                                  "system bits are unbounded at this sample size"]


def _joint_report(n: int, hits, joint_hits: int, seed: int | None,
                  frs: tuple[FunctionalRequirement, ...]) -> SystemInfoReport:
    system = _mc_result(joint_hits, n)
    return SystemInfoReport(
        method="joint", per_fr=tuple(_mc_result(h, n) for h in hits), frs=frs,
        system_probability=system.probability, system_bits=system.bits,
        mc=McStats(seed=seed, n_samples=n, std_error=system.std_error),
        warnings=tuple(_unbounded(n, joint_hits)))


def system_information_joint(
    model,
    frs: Sequence[FunctionalRequirement],
    mc: McConfig = McConfig(),
) -> SystemInfoReport:
    """Monte Carlo joint information.

    Samples the model once; the system probability is the fraction of
    outcome vectors inside all ranges at once, and the per-FR rows are the
    marginal fractions. No independence assumption. A model with
    ``chunk_rows`` set is sampled from several threads at once, out of row
    order (see the module docstring)."""
    frs = _checked_frs(frs)
    hits, links = _draw_tally(model, frs, range(len(frs)), mc)
    return _joint_report(mc.n_samples, hits, links[-1], mc.seed, frs)


def system_information_from_samples(
    samples,
    frs: Sequence[FunctionalRequirement],
    seed: int | None = None,
) -> SystemInfoReport:
    """Joint information computed from an existing (n, m) sample table
    (for example the output of a simulation run), one column per FR of
    ``frs``. ``seed`` is recorded for provenance when known."""
    frs = _checked_frs(frs)
    n, hits, links = _tally([samples], frs, range(len(frs)))
    return _joint_report(n, hits, links[-1], seed, frs)


def conditional_chain_information(
    model,
    order: Sequence,
    frs: Sequence[FunctionalRequirement],
    mc: McConfig = McConfig(),
) -> SystemInfoReport:
    """Chained conditional information along ``order``.

    ``order`` is a permutation of the indices of ``frs``, given as integers
    (anything ``operator.index`` takes but a bool), as
    :func:`~axdesign.coupling.sequence` gives them. Each link's probability is
    estimated from the samples that satisfied every earlier link, so the
    link product telescopes to the joint estimate for the same seed and
    sample count; the system bits are the sum of the per-link bits. A link
    that leaves zero surviving samples starves the links after it: those
    are reported as zero probability with infinite error, and a warning is
    attached. The report's ``frs`` follow the chain order. The model is
    sampled as :func:`system_information_joint` samples it.
    """
    frs = _checked_frs(frs)
    idx_order = _resolve_order(order, len(frs))
    _, links = _draw_tally(model, frs, idx_order, mc)
    n = mc.n_samples

    # Each link is scored on the rows that survived the links before it;
    # once none survive, the links after are unbounded.
    before = [n] + links[:-1]
    per = [_mc_result(hits, survivors) if survivors else InfoResult(0.0, math.inf, math.inf)
           for hits, survivors in zip(links, before)]
    total_bits = sum(res.bits for res in per)
    warnings = _unbounded(n, links[-1])
    if 0 in before:
        starved_after = frs[idx_order[before.index(0) - 1]].id
        warnings.append(
            f"sample starvation: no samples survived past {starved_after}; "
            "later links are reported as zero probability with infinite error")

    system = _mc_result(links[-1], n)
    return SystemInfoReport(
        method="chain", per_fr=tuple(per), frs=tuple(frs[i] for i in idx_order),
        system_probability=system.probability, system_bits=total_bits,
        mc=McStats(seed=mc.seed, n_samples=n, std_error=system.std_error),
        warnings=tuple(warnings))


def _resolve_order(order, n_frs: int) -> list[int]:
    resolved = []
    for entry in order:
        if not hasattr(entry, "__index__") or isinstance(entry, bool):
            raise ValueError(f"order entries must be FR indices, got {entry!r}")
        resolved.append(operator.index(entry))
    if sorted(resolved) != list(range(n_frs)):
        raise ValueError("order must be a permutation of the FR columns")
    return resolved
