"""Information content of functional requirements, in bits.

The information attached to one FR is ``-log2(P)`` where P is the
probability that the realized output lands inside the FR's design range.
Certain success costs zero bits; impossible success costs infinitely many.
System-level information adds across FRs exactly when their success events
are independent; otherwise it must be estimated from joint behaviour.

Estimation routes:

* :func:`system_information_independent` — combine closed-form per-FR
  results (from :func:`fr_information`) under independence: probabilities
  multiply, bits add (an infinite term absorbs the sum).
* :func:`system_information_joint` — Monte Carlo over a sampling model;
  the system probability is the fraction of sampled outcome vectors inside
  every design range simultaneously. Valid for any dependence structure.
  :func:`system_information_from_samples` is the same estimator applied to
  an already-drawn sample table.
* :func:`conditional_chain_information` — a product of conditional success
  probabilities along a given FR order (FR indices, as
  :func:`~axdesign.coupling.sequence` gives them), each link estimated from the
  samples that already satisfied every earlier link (rejection
  conditioning on one shared sample set). The link product telescopes to
  the joint count, so chain and joint totals agree for the same seed; the
  chain additionally shows what each requirement costs once its
  predecessors are met. The estimator accepts any ordering, but only
  orderings that respect the dependency structure (e.g. a decoupled
  adjustment sequence) make the per-link numbers individually meaningful.

Monte Carlo standard errors are binomial on the probability scale and
mapped to bits by the delta method (divide by ``p * ln 2``); a zero
estimate has infinite bits-scale error, a certain one has zero.

The Monte Carlo routes sample a :class:`~axdesign.propagation.LinearModel`
or a :class:`~axdesign.propagation.ScenarioModel`, through the
``chunk_rows`` and ``sample_frs`` the two share. A linear model
(``chunk_rows`` 8192) is sampled that many rows at a time, as
``sample_frs(stream, rows, start)`` on one
:class:`~axdesign.distributions.Substreams` of the run's seed, and each
chunk is scored before the next is drawn. A chunk holds the rows
``start … start+rows-1`` of the one-call table, so the counts, and the
reports, do not depend on the chunking, and the memory of a linear-model
run does not grow with the sample count. The tank model, whose rows are
consecutive cycles of one run, has ``chunk_rows = None``: it is sampled in
one call, ``sample_frs(rng, n)``, and that one table is scored.

A linear-model run of more than one chunk is scored on every CPU the
process may use: its chunks are split into contiguous parts, one per CPU
(at most one per chunk). The calling thread scores part 0 and a pool of
one thread fewer than the CPU count, made on first use, scores the rest,
each part drawing its own chunks from its own
:class:`~axdesign.distributions.Substreams`, since a Philox generator must
not be shared between threads. Substream values are addressed by
position, so a part draws exactly the rows a serial run draws for those
chunks. Each part returns integer counts, and integer sums
do not depend on the order they are added in, so the summed counts, and
the reports, are those of a serial run on any number of CPUs. When parts
fail, the failure of the earliest rows is raised, after every part has
stopped. One-chunk runs, one-CPU hosts and the tank model stay on the
calling thread and start no thread. Any model with ``chunk_rows`` set is
split so, not only :class:`~axdesign.propagation.LinearModel`: its
``sample_frs(stream, rows, start)`` is called from several threads at once
and not in row order, so it must be safe to call that way, and the rows it
returns must depend only on ``start`` and ``rows``.

Every route scores samples with one streaming tally: per-FR hits, and for
each link of an FR order the rows inside every range so far (the joint
route uses declaration order, so its last link is the joint count). The
tally is also the one place that checks for at least one design range. A
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

from .distributions import (Pdf, RngState, Substreams, float64_array,
                            is_count, is_real)
from .errors import NonFiniteSamples
from .model import DesignRange, range_bounds

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
    row is conditional on its predecessors. ``fr_ids`` labels the rows when
    the caller supplied names. ``mc`` is ``None`` for closed-form results.
    """

    method: str
    per_fr: tuple[InfoResult, ...]
    system_probability: float
    system_bits: float
    mc: McStats | None = None
    fr_ids: tuple[str, ...] | None = None
    warnings: tuple[str, ...] = ()


def _bounds(design_range) -> tuple[float, float]:
    """The bounds of a DesignRange, or of a ``(lo, hi)`` pair of finite
    numbers with ``lo <= hi``; ValueError for any other pair."""
    if isinstance(design_range, DesignRange):
        return range_bounds(design_range)
    lo, hi = design_range
    if not (is_real(lo) and is_real(hi) and lo <= hi):
        raise ValueError("design range bounds must be finite numbers with lo <= hi")
    return float(lo), float(hi)


def fr_information(pdf: Pdf, design_range) -> InfoResult:
    """Closed-form information for one FR.

    ``design_range`` is a :class:`~axdesign.model.DesignRange` or a
    ``(lo, hi)`` pair; the probability is the pdf's mass over it.
    """
    lo, hi = _bounds(design_range)
    p = min(max(pdf.interval_probability(lo, hi), 0.0), 1.0)
    return InfoResult(probability=p, bits=bits_from_probability(p))


def system_information_independent(
    results: Sequence[InfoResult],
    fr_ids: Sequence[str] | None = None,
) -> SystemInfoReport:
    """Combine per-FR results under independence.

    The system probability is the product of the per-FR probabilities and
    the system bits are their sum (the same number up to float rounding;
    an infinite term makes both degenerate consistently).
    """
    results = tuple(results)
    if not results:
        raise ValueError("at least one per-FR result is required")
    total_p = 1.0
    total_bits = 0.0
    for res in results:
        total_p *= res.probability
        total_bits += res.bits
    return SystemInfoReport(
        method="analytic", per_fr=results,
        system_probability=total_p, system_bits=total_bits,
        fr_ids=tuple(fr_ids) if fr_ids is not None else None)


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


def _tally(tables, ranges, order, labels=None) -> tuple[int, list[int], list[int]]:
    """Score sample tables chunk by chunk against the design ranges.

    ``tables`` is an iterable of (rows, m) arrays, the chunks of one sample
    table. Returns ``(n, hits, links)``: the row count, the rows inside
    each FR's range (declaration order), and for each position k of
    ``order`` the rows inside the ranges of ``order[:k+1]`` at once. The
    links are the chain's survivors after each link, so ``links[-1]`` is the
    joint count. Only one chunk's worth of masks is held at a time.
    """
    bounds = [_bounds(r) for r in ranges]
    if not bounds:
        raise ValueError("at least one design range is required")
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
                label = f"FR {labels[j]}" if labels else f"column {j}"
                raise NonFiniteSamples(f"sample values of {label} are not all finite")
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
    """The model's sample table for ``mc``: ``chunk_rows`` rows at a time
    from one reseated :class:`Substreams`, or in one call when
    ``chunk_rows`` is None. ``chunks`` picks chunk indices of a chunked
    table (all of them by default)."""
    rng = RngState(seed=mc.seed)
    n = mc.n_samples
    rows = model.chunk_rows
    if rows is None:
        yield model.sample_frs(rng, n)
        return
    stream = Substreams(rng)
    starts = range(0, n, rows)
    if chunks is not None:
        starts = starts[chunks.start:chunks.stop]
    for start in starts:
        yield model.sample_frs(stream, min(rows, n - start), start)


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


def _draw_tally(model, ranges, order, mc: McConfig, labels):
    rows = model.chunk_rows
    n_chunks = 1 if rows is None else -(-mc.n_samples // rows)
    parts = min(_CPUS, n_chunks)
    cuts = [n_chunks * i // parts for i in range(parts + 1)]

    def score(i):
        chunks = range(cuts[i], cuts[i + 1])
        return _tally(_tables(model, mc, chunks), ranges, order, labels)

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


def _joint_report(n: int, hits, joint_hits: int, seed: int | None,
                  fr_ids: Sequence[str] | None) -> SystemInfoReport:
    per = tuple(_mc_result(h, n) for h in hits)
    system = _mc_result(joint_hits, n)
    warnings = []
    if joint_hits == 0:
        warnings.append(
            f"no samples landed inside all design ranges ({n} drawn); "
            "system bits are unbounded at this sample size")
    return SystemInfoReport(
        method="joint", per_fr=per,
        system_probability=system.probability, system_bits=system.bits,
        mc=McStats(seed=seed, n_samples=n, std_error=system.std_error),
        fr_ids=tuple(fr_ids) if fr_ids is not None else None,
        warnings=tuple(warnings))


def system_information_joint(
    model,
    ranges: Sequence,
    mc: McConfig = McConfig(),
    fr_ids: Sequence[str] | None = None,
) -> SystemInfoReport:
    """Monte Carlo joint information.

    Samples the model once; the system probability is the fraction of
    outcome vectors inside all ranges at once, and the per-FR rows are the
    marginal fractions. No independence assumption. A model with
    ``chunk_rows`` set is sampled from several threads at once, out of row
    order (see the module docstring)."""
    ranges = tuple(ranges)
    hits, links = _draw_tally(model, ranges, range(len(ranges)), mc, fr_ids)
    return _joint_report(mc.n_samples, hits, links[-1], mc.seed, fr_ids)


def system_information_from_samples(
    samples,
    ranges: Sequence,
    fr_ids: Sequence[str] | None = None,
    seed: int | None = None,
) -> SystemInfoReport:
    """Joint information computed from an existing (n, m) sample table
    (for example the output of a simulation run). ``seed`` is recorded for
    provenance when known."""
    ranges = tuple(ranges)
    n, hits, links = _tally([samples], ranges, range(len(ranges)), fr_ids)
    return _joint_report(n, hits, links[-1], seed, fr_ids)


def conditional_chain_information(
    model,
    order: Sequence,
    ranges: Sequence,
    mc: McConfig = McConfig(),
    fr_ids: Sequence[str] | None = None,
) -> SystemInfoReport:
    """Chained conditional information along ``order``.

    ``order`` is a permutation of the FR columns, given as integer indices
    (anything ``operator.index`` takes but a bool), as
    :func:`~axdesign.coupling.sequence` gives them. Each link's probability is
    estimated from the samples that satisfied every earlier link, so the
    link product telescopes to the joint estimate for the same seed and
    sample count; the system bits are the sum of the per-link bits. A link
    that leaves zero surviving samples starves the links after it: those
    are reported as zero probability with infinite error, and a warning is
    attached. The model is sampled as :func:`system_information_joint`
    samples it.
    """
    ranges = tuple(ranges)
    labels = tuple(fr_ids) if fr_ids is not None else None
    idx_order = _resolve_order(order, len(ranges))
    _, links = _draw_tally(model, ranges, idx_order, mc, labels)
    n = mc.n_samples

    # Each link is scored on the rows that survived the links before it;
    # once none survive, the links after are unbounded.
    before = [n] + links[:-1]
    per = [_mc_result(hits, survivors) if survivors else InfoResult(0.0, math.inf, math.inf)
           for hits, survivors in zip(links, before)]
    total_bits = sum(res.bits for res in per)
    warnings = []
    if 0 in before:
        prev = idx_order[before.index(0) - 1]
        starved_after = labels[prev] if labels else f"column {prev}"
        warnings.append(
            f"sample starvation: no samples survived past {starved_after}; "
            "later links are reported as zero probability with infinite error")

    system = _mc_result(links[-1], n)
    chain_ids = tuple(labels[i] for i in idx_order) if labels else None
    return SystemInfoReport(
        method="chain", per_fr=tuple(per),
        system_probability=system.probability, system_bits=total_bits,
        mc=McStats(seed=mc.seed, n_samples=n, std_error=system.std_error),
        fr_ids=chain_ids, warnings=tuple(warnings))


def _resolve_order(order, n_frs: int) -> list[int]:
    resolved = []
    for entry in order:
        if not hasattr(entry, "__index__") or isinstance(entry, bool):
            raise ValueError(f"order entries must be FR indices, got {entry!r}")
        resolved.append(operator.index(entry))
    if sorted(resolved) != list(range(n_frs)):
        raise ValueError("order must be a permutation of the FR columns")
    return resolved
