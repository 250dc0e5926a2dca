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
``epsilon`` (strictly greater-than), then peel forced pairs (Steward 1965):
an FR left with exactly one untaken DP must take it in every perfect
matching, so the smallest such FR is paired with it, again and again. A
peel that pairs every FR has found the only perfect matching and an
adjustment order at once: the design is uncoupled or decoupled. An FR left
with no DP means no perfect matching exists. Only when the peel stalls
does the whole pattern go on: find a perfect FR-DP matching (MC21, Duff
1981), build the digraph on matched pairs (pair p depends on pair q when
p's FR is influenced by q's DP), and take its strongly connected
components. This is the Dulmage-Mendelsohn decomposition of the pattern
into block-triangular form (Duff & Reid): the components are the diagonal
blocks, and listed in dependency order they make the permuted matrix block
lower-triangular.

A coupled result's pairs are one perfect matching, the one MC21 finds; only
the blocks' FR and DP sets and their order are the same for every perfect
matching (Pothen & Fan 1990). Orders and block listings break ties by FR
declaration order, so results are deterministic. The matcher and both
graph searches keep explicit stacks, so no input depth recurses.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from enum import Enum
from typing import ClassVar

import numpy as np

__all__ = [
    "DesignMatrix",
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


class DesignMatrix:
    """Immutable wrapper for a real, finite, 2-D influence matrix."""

    def __init__(self, entries):
        arr = _checked(entries).copy()
        arr.setflags(write=False)
        self._entries = arr

    @property
    def entries(self) -> np.ndarray:
        return self._entries

    @property
    def shape(self) -> tuple[int, int]:
        return self._entries.shape

    @property
    def n_frs(self) -> int:
        return self._entries.shape[0]

    @property
    def n_dps(self) -> int:
        return self._entries.shape[1]

    def __repr__(self):
        return f"DesignMatrix({self._entries.tolist()!r})"

    def __eq__(self, other):
        return isinstance(other, DesignMatrix) and np.array_equal(
            self._entries, other._entries)

    def __hash__(self):
        return hash(self._entries.tobytes())


def _checked(entries) -> np.ndarray:
    """``entries`` as a 2-D, non-empty, finite float array, copied only if needed."""
    arr = np.asarray(entries, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ValueError("design matrix must be 2-D with at least one row and column")
    if not np.isfinite(arr).all():
        raise ValueError("design matrix entries must all be finite")
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


def binarize(matrix, epsilon: float = 0.0) -> np.ndarray:
    """Boolean dependency pattern: True where ``|A[i][j]| > epsilon``."""
    entries = matrix.entries if isinstance(matrix, DesignMatrix) else _checked(matrix)
    if not (isinstance(epsilon, (int, float)) and math.isfinite(epsilon)) or epsilon < 0:
        raise ValueError("epsilon must be a finite number >= 0")
    return (entries > epsilon) | (entries < -epsilon)


def _packed_rows(dep):
    """Each row of a pattern as an int with bit ``width - 1 - j`` for DP j,
    and that ``width``."""
    packed = np.packbits(dep, axis=1)
    return [int.from_bytes(row, "big") for row in packed], 8 * packed.shape[1]


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


def _max_matching(rows, width):
    """A perfect matching of a square pattern as (``held``, ``owner``): the
    DP of each FR and the FR of each DP, DP j known by the bit length
    ``width - j`` of its bit in :func:`_packed_rows`. None at the first FR
    that cannot be matched (then no perfect matching exists).

    MC21 (Duff 1981): a greedy start gives each FR, in index order, its
    lowest unmatched DP. Each FR left over searches depth first, with a
    stack in place of recursion, for an augmenting path, on which every FR
    looks ahead for an unmatched DP before it descends into its lowest DP
    not yet visited in this search.
    """
    bit = [0] + [1 << k for k in range(width)]
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
    for start in left:
        free, frs, row = full, [start], rows[start]
        while True:
            b = (row & unmatched or row & free).bit_length()
            if b:
                fr = owner[b]
                if fr < 0:
                    break
                free ^= bit[b]
                frs.append(fr)
                row = rows[fr]
            else:
                frs.pop()
                if not frs:
                    return None
                row = rows[frs[-1]]
        # Augment: each FR on the path takes the DP of the FR after it.
        unmatched ^= bit[b]
        for fr in reversed(frs):
            owner[b] = fr
            held[fr], b = b, held[fr]
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
    adj = []
    for row, b in zip(rows, held):
        row ^= 1 << (b - 1)
        on = []
        while row:
            b = row.bit_length()
            on.append(owner[b])
            row ^= 1 << (b - 1)
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
    """Indices of FRs influenced by DP ``dp`` (entries above ``epsilon``)."""
    dep = binarize(matrix, epsilon)
    n_dps = dep.shape[1]
    if not (isinstance(dp, int) and 0 <= dp < n_dps):
        raise ValueError(f"dp index {dp} out of range for {n_dps} DPs")
    return set(np.flatnonzero(dep[:, dp]).tolist())
