"""Dependency-structure classification of design matrices.

The influence matrix A (one row per FR, one column per DP, A[i][j] = the
influence of DP j on FR i) is classified by structure alone:

* **Uncoupled**: a perfect FR-DP matching exists and every FR depends only
  on its matched DP. Each requirement can be tuned independently.
* **Decoupled**: a perfect matching exists and the matched-pair dependency
  digraph is acyclic. There is an adjustment order in which tuning a DP
  never disturbs an already-satisfied FR.
* **Coupled**: a perfect matching exists but the pair digraph has a cycle;
  the strongly connected components are the irreducible blocks that must be
  solved simultaneously.
* **Degenerate**: no perfect matching exists (non-square matrix, or a
  square one whose zero pattern admits no full assignment).

Classification steps: binarize entries against a magnitude threshold
``epsilon`` (strictly greater-than) in one pass over the matrix, a
cache-sized block of rows at a time, which also checks every entry finite
(a wrong shape is reported first, then a non-finite entry, then a bad
``epsilon``). Then peel forced pairs (Steward 1965):
an FR left with exactly one untaken DP must take it in every perfect
matching, so the smallest such FR is paired with it, again and again. A
peel that pairs every FR has found the only perfect matching and an
adjustment order at once: the design is uncoupled or decoupled. An FR left
with no DP means no perfect matching exists. Only when the peel stalls
does the whole pattern go on: find a perfect FR-DP matching (MC21, Duff
1981, searched in the phases of Pothen & Fan 1990: the searches of a phase
share one set of visited DPs, and an FR stops looking ahead for an
unmatched DP once its row has none), build the digraph on matched pairs
(pair p depends on pair q when p's FR is influenced by q's DP), and take
its strongly connected components. This is the Dulmage-Mendelsohn
decomposition of the pattern into block-triangular form (Duff & Reid):
the components are the diagonal blocks, and listed in dependency order
they make the permuted matrix block lower-triangular.

A coupled result's pairs are one perfect matching, the one the matcher
finds; only the blocks' FR and DP sets and their order are the same for
every perfect matching (Pothen & Fan 1990). Orders and block listings
break ties by FR declaration order, so results are deterministic. The
matcher and both graph searches keep explicit stacks, so no input depth
recurses.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import operator
from dataclasses import dataclass
from enum import Enum
from typing import ClassVar

import numpy as np

from .distributions import _FLOAT_MAX, float64_array, is_real

__all__ = [
    "DegenerateReason",
    "Uncoupled",
    "Decoupled",
    "Coupled",
    "Degenerate",
    "Classification",
    "binarize",
    "classify",
    "sequence",
    "affected_frs",
]


_NON_FINITE = "design matrix entries must all be finite"


def _float64(entries, copy=None) -> np.ndarray:
    """``entries`` as a 2-D, non-empty float64 array, copied only if needed
    or if ``copy``. Entries are not checked: an integer beyond float64 is
    +-inf, which the finite check of :func:`_pattern` rejects."""
    arr = float64_array(entries, copy)
    if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ValueError("design matrix must be 2-D with at least one row and column")
    return arr


def frozen_matrix(entries) -> np.ndarray:
    """A read-only copy of ``entries``, checked as a design matrix."""
    arr = _float64(entries, copy=True)
    _pattern(arr)
    arr.setflags(write=False)
    return arr


class DegenerateReason(Enum):
    NON_SQUARE = "non_square"
    NO_PERFECT_MATCHING = "no_perfect_matching"


@dataclass(frozen=True)
class Uncoupled:
    """Every FR is driven solely by its matched DP. ``pairs`` are
    (fr_index, dp_index) in FR declaration order."""

    pairs: tuple[tuple[int, int], ...]
    kind: ClassVar[str] = "uncoupled"


@dataclass(frozen=True)
class Decoupled:
    """Acyclic dependencies; ``order`` is an adjustment sequence of
    (fr_index, dp_index) pairs such that each FR depends only on its own DP
    and DPs appearing earlier."""

    order: tuple[tuple[int, int], ...]
    kind: ClassVar[str] = "decoupled"


@dataclass(frozen=True)
class Coupled:
    """Cyclic dependencies; ``blocks`` partition all matched pairs into
    strongly connected components (at least one of size >= 2), listed in
    dependency order."""

    blocks: tuple[tuple[tuple[int, int], ...], ...]
    kind: ClassVar[str] = "coupled"


@dataclass(frozen=True)
class Degenerate:
    """No perfect FR-DP matching exists."""

    reason: DegenerateReason
    kind: ClassVar[str] = "degenerate"


Classification = Uncoupled | Decoupled | Coupled | Degenerate


def checked_epsilon(epsilon) -> float:
    """``epsilon`` as a float; ValueError unless it is a finite number
    (:func:`~axdesign.distributions.is_real`) >= 0."""
    if not (is_real(epsilon) and epsilon >= 0):
        raise ValueError("epsilon must be a finite number >= 0")
    return float(epsilon)


# Entries that one pass of binarize reads: 2**15 float64 (256 KiB) stay in
# cache from the magnitude through the finite check to the threshold. At
# n = 2000, passes of 2**12 took nearly twice as long, and larger passes
# gained little for a larger buffer.
_PASS_ENTRIES = 1 << 15


def binarize(matrix, epsilon: float = 0.0) -> np.ndarray:
    """Boolean dependency pattern: True where ``|A[i][j]| > epsilon``.

    The entries are read once, a block of rows at a time: the magnitudes of
    a block go to one reused buffer, are checked finite (their maximum is at
    most float64's, which nan and inf fail) and are compared with
    ``epsilon`` into the block's rows of the pattern. A float64 array is
    read in place; the pattern is the only full-size array made. Faults are
    raised in this order: the shape, a non-finite entry, then ``epsilon``.
    """
    entries = _float64(matrix)
    try:
        eps = checked_epsilon(epsilon)
    except ValueError:
        _pattern(entries)  # a fault in the entries is raised first
        raise
    return _pattern(entries, eps)


def _pattern(entries, eps=None):
    """The pass of :func:`binarize` over a 2-D float64 array; with ``eps``
    None, only its finite check (and None is returned)."""
    m, n = entries.shape
    step = max(1, _PASS_ENTRIES // n)  # rows per pass, at least one
    dep = None if eps is None else np.empty((m, n), dtype=bool)
    scratch = np.empty((min(step, m), n))
    for start in range(0, m, step):
        block = entries[start:start + step]
        mag = np.abs(block, out=scratch[:len(block)])
        if not mag.max() <= _FLOAT_MAX:
            raise ValueError(_NON_FINITE)
        if dep is not None:
            np.greater(mag, eps, out=dep[start:start + step])
    return dep


def _packed_rows(dep):
    """Each row of a pattern as an int with bit ``width - 1 - j`` for DP j,
    and that ``width``."""
    packed = np.packbits(dep, axis=1)
    size, buf = packed.shape[1], packed.tobytes()
    return ([int.from_bytes(buf[at:at + size], "big") for at in range(0, len(buf), size)],
            8 * size)


def _peel(dep, rows, width):
    """The forced FR-DP pairs of a square pattern in the order they are
    forced, or None once some FR has no DP left (no perfect matching).

    An FR with exactly one untaken DP takes that DP in every perfect
    matching, so the smallest such FR is paired with it, over and over,
    until every FR is paired or none has exactly one DP left (a stall, on a
    coupled or degenerate pattern: the pairs so far are returned). A full
    peel is thus the only perfect matching, each pair depends only on DPs
    taken before it, and taking the smallest ready FR at every step is the
    dependency order with ties broken by FR index.

    ``rows`` and ``width`` are from :func:`_packed_rows`. A set of FRs is
    an int with bit 8i for FR i, the bytes of a numpy bool vector, so a
    DP's column converts to one directly. Each FR's count of untaken DPs is
    kept bit sliced: bit 8i of ``planes[p]`` is bit p of FR i's count.
    Taking a DP lowers the count of every FR in its column with a borrow
    that ripples through the planes, a few int operations however full the
    column is.
    """
    counts = [row.bit_count() for row in rows]
    if 0 in counts:
        return None
    if 1 not in counts:
        return []
    n = len(rows)
    alive = int.from_bytes(b"\x01" * n, "little")  # every FR
    # Bits 8d to 8d + 7 of the counts, one byte per FR, give planes 8d on.
    digits = [int.from_bytes(bytes(c >> s & 255 for c in counts), "little")
              for s in range(0, n.bit_length(), 8)]
    planes = [digits[p >> 3] >> (p & 7) & alive for p in range(n.bit_length())]
    free, pairs = (1 << width) - 1, []
    while alive:
        higher = 0  # FRs with two or more untaken DPs
        for plane in planes[1:]:
            higher |= plane
        if alive & ~(planes[0] | higher):  # an FR with none
            return None
        ready = alive & planes[0] & ~higher
        if not ready:
            break
        at = (ready & -ready).bit_length() - 1  # the lowest set bit
        fr = at >> 3
        b = (rows[fr] & free).bit_length()  # its DP is width - b
        free ^= 1 << (b - 1)
        alive ^= 1 << at
        pairs.append((fr, width - b))
        # Subtract 1 from the count of each unpaired FR in the DP's column.
        borrow = int.from_bytes(dep[:, width - b].tobytes(), "little") & alive
        for p, plane in enumerate(planes):
            if not borrow:
                break
            planes[p] = plane ^ borrow
            borrow &= ~plane
    return pairs


@functools.lru_cache(maxsize=1)
def _bits(width):
    """The table ``bit`` with ``bit[b]`` the int of bit length ``b``, for b
    from 1 to ``width``, and ``bit[0] = 0``. Cached for the last width, so
    :func:`classify` and the matcher build it once; never written to."""
    return [0] + [1 << k for k in range(width)]


def _max_matching(rows, width):
    """A perfect matching of a square pattern as (``held``, ``owner``): the
    DP of each FR and the FR of each DP, DP j known by the bit length
    ``width - j`` of its bit in :func:`_packed_rows`. None once it is shown
    that no perfect matching exists.

    MC21 (Duff 1981) in the phases of Pothen & Fan (1990): a greedy start
    gives each FR, in index order, its lowest unmatched DP. The FRs left
    over search for augmenting paths in phases, one after another in index
    order, depth first with a stack in place of recursion. Every FR on a
    path looks ahead for an unmatched DP before it descends into its lowest
    DP not yet visited in this phase: the searches of a phase share one
    visited set, so a phase visits each DP at most once. A search that
    fails is kept for the next phase. A search that fails before any
    search of its phase has augmented was blocked only by DPs from which no
    augmenting path leads on, so its FR has no augmenting path, no perfect
    matching exists, and None is returned at once; so every phase augments
    at least once. A matched DP never becomes unmatched again, so once an
    FR's row holds no unmatched DP its lookahead is retired for good.
    """
    bit = _bits(width)
    owner = [-1] * (width + 1)
    held = [0] * len(rows)
    unmatched = full = (1 << width) - 1
    left = []
    for fr, row in enumerate(rows):
        b = (row & unmatched).bit_length()
        if b:
            unmatched ^= bit[b]
            owner[b], held[fr] = fr, b
        else:
            left.append(fr)
    looking = [True] * len(rows)
    while left:
        free, augmented, failed = full, False, []
        for start in left:
            frs = [start]
            while frs:
                fr = frs[-1]
                row = rows[fr]
                if looking[fr]:
                    b = (row & unmatched).bit_length()
                    if b:
                        break
                    looking[fr] = False
                b = (row & free).bit_length()
                if b:
                    free ^= bit[b]
                    frs.append(owner[b])
                else:
                    frs.pop()
            else:
                if not augmented:
                    return None
                failed.append(start)
                continue
            # Augment: each FR on the path takes the DP of the FR after it.
            augmented = True
            unmatched ^= bit[b]
            for fr in reversed(frs):
                owner[b] = fr
                held[fr], b = b, held[fr]
        left = failed
    return held, owner


def _strongly_connected(adj):
    """Tarjan's algorithm with a stack of edge iterators in place of
    recursion; components are returned as sorted vertex lists."""
    n = len(adj)
    index, low = [-1] * n, [0] * n  # index -1: unvisited, n: component out
    stack, comps, tick = [], [], itertools.count()
    for root in range(n):
        if index[root] >= 0:
            continue
        index[root] = low[root] = next(tick)
        stack.append(root)
        work = [(root, iter(adj[root]))]
        while work:
            v, edges = work[-1]
            for w in edges:
                if index[w] < 0:
                    index[w] = low[w] = next(tick)
                    stack.append(w)
                    work.append((w, iter(adj[w])))
                    break
                if index[w] < low[v]:
                    low[v] = index[w]
            else:
                work.pop()
                if work and low[v] < low[work[-1][0]]:
                    low[work[-1][0]] = low[v]
                if low[v] == index[v]:
                    comp = []
                    while not comp or comp[-1] != v:
                        comp.append(stack.pop())
                        index[comp[-1]] = n
                    comps.append(sorted(comp))
    return comps


def classify(matrix, epsilon: float = 0.0) -> Classification:
    """Classify a design matrix's dependency structure.

    ``matrix`` is a 2-D array-like of finite numbers, one row per FR and one
    column per DP; a float64 array is read in place, not copied.

    ``epsilon`` is the magnitude below which entries count as zero
    (strict comparison, so the default 0.0 keeps every nonzero entry).
    """
    dep = binarize(matrix, epsilon)
    m, n = dep.shape
    if m != n:
        return Degenerate(DegenerateReason.NON_SQUARE)

    rows, width = _packed_rows(dep)
    peeled = _peel(dep, rows, width)
    if peeled is None:
        return Degenerate(DegenerateReason.NO_PERFECT_MATCHING)
    if len(peeled) == n:
        if np.count_nonzero(dep) == n:
            return Uncoupled(tuple(peeled))
        return Decoupled(tuple(peeled))

    # The peel stalled: the pattern is coupled, or degenerate in a way no
    # forced pair shows. Match and decompose the whole pattern.
    matched = _max_matching(rows, width)
    if matched is None:
        return Degenerate(DegenerateReason.NO_PERFECT_MATCHING)
    held, owner = matched

    # Pair i is FR i with its matched DP; pair i depends on pair j when FR i
    # is influenced by pair j's DP other than its own.
    bit, adj = _bits(width), []
    for row, b in zip(rows, held):
        row ^= bit[b]
        on = []
        while row:
            b = row.bit_length()
            on.append(owner[b])
            row ^= bit[b]
        adj.append(on)

    comps = _strongly_connected(adj)
    pairs = [(fr, width - b) for fr, b in enumerate(held)]
    comp_of = [0] * m
    for ci, comp in enumerate(comps):
        for v in comp:
            comp_of[v] = ci
    cond = [sorted({comp_of[w] for v in comp for w in adj[v]} - {ci})
            for ci, comp in enumerate(comps)]
    order = _dependency_order(cond, lambda ci: comps[ci][0])
    blocks = tuple(tuple(pairs[v] for v in comps[ci]) for ci in order)
    return Coupled(blocks)


def _dependency_order(adj, key):
    """Topological order with dependencies first, ties broken by smallest
    ``key(v)``. ``adj[v]`` lists the vertices v depends on."""
    n = len(adj)
    pending = [len(adj[v]) for v in range(n)]
    dependents = [[] for _ in range(n)]
    for v in range(n):
        for w in adj[v]:
            dependents[w].append(v)
    heap = [(key(v), v) for v in range(n) if pending[v] == 0]
    heapq.heapify(heap)
    out = []
    while heap:
        _, v = heapq.heappop(heap)
        out.append(v)
        for w in dependents[v]:
            pending[w] -= 1
            if pending[w] == 0:
                heapq.heappush(heap, (key(w), w))
    if len(out) != n:
        raise AssertionError("dependency order requested for a cyclic graph")
    return out


def sequence(classification: Classification) -> tuple[tuple[int, int], ...]:
    """Adjustment sequence for uncoupled/decoupled designs.

    Uncoupled designs return pairs in FR declaration order; decoupled
    designs return the stored dependency-safe order. Coupled and degenerate
    designs have no such sequence, so requesting one raises ``ValueError``.
    """
    if isinstance(classification, Uncoupled):
        return classification.pairs
    if isinstance(classification, Decoupled):
        return classification.order
    raise ValueError(f"no adjustment sequence exists for a {classification.kind} design")


def affected_frs(matrix, dp: int, epsilon: float = 0.0) -> set[int]:
    """Indices of FRs influenced by DP ``dp`` (entries above ``epsilon``).

    The matrix and ``epsilon`` are checked as :func:`binarize` checks them,
    in its order and then the DP index, but only column ``dp`` is
    thresholded."""
    entries = _float64(matrix)
    _pattern(entries)
    eps = checked_epsilon(epsilon)
    n_dps = entries.shape[1]
    try:
        index = operator.index(dp)
    except TypeError:
        index = -1
    if isinstance(dp, bool) or not 0 <= index < n_dps:
        raise ValueError(f"dp index {dp} out of range for {n_dps} DPs")
    return set(np.flatnonzero(np.abs(entries[:, index]) > eps).tolist())
