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
``epsilon`` (strictly greater-than), find a perfect FR-DP matching, build
the digraph on matched pairs (pair p depends on pair q when p's FR is
influenced by q's DP), and take its strongly connected components. This is
the Dulmage-Mendelsohn decomposition of the pattern into block-triangular
form (Duff & Reid): the components are the diagonal blocks, and listed in
dependency order they make the permuted matrix block lower-triangular.

The blocks do not depend on which perfect matching is found; the matching
is fixed by searching FRs and DPs in index order, and orders and block
listings break ties by FR declaration order, so results are deterministic.
Both graph searches keep explicit stacks, so no input depth recurses.
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


def _max_matching(dep):
    """DP matched to each FR of a square pattern, or None at the first FR
    that cannot be matched (then no perfect matching exists).

    Kuhn's algorithm with a stack of FRs in place of recursion: FRs in index
    order each search depth first for an augmenting path, every FR on it
    tries its DPs in index order, and a DP is visited once per search. All
    DPs before an FR's scan position are visited, so its next DP is the
    lowest unvisited one in its row. Rows and the unvisited set are ints
    with bit ``width - 1 - j`` for DP j, so that DP is the highest set bit
    of ``row & free``, found in one step however many DPs were skipped.
    """
    packed = np.packbits(dep, axis=1)
    width = 8 * packed.shape[1]
    rows = [int.from_bytes(row, "big") for row in packed]
    # DP j is known by the bit length ``b = width - j`` of its bit.
    bit = [0] + [1 << k for k in range(width)]
    owner = [-1] * (width + 1)
    held = [0] * len(rows)
    full = (1 << width) - 1
    for start in range(len(rows)):
        free, frs, row = full, [start], rows[start]
        while True:
            cand = row & free
            if cand:
                b = cand.bit_length()
                free ^= bit[b]
                fr = owner[b]
                if fr < 0:
                    break
                frs.append(fr)
                row = rows[fr]
            else:
                frs.pop()
                if not frs:
                    return None
                row = rows[frs[-1]]
        # Augment: each FR on the path takes the DP of the FR after it.
        for fr in reversed(frs):
            owner[b] = fr
            held[fr], b = b, held[fr]
    return width - np.array(held)


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

    match_fr = _max_matching(dep)
    if match_fr is None:
        return Degenerate(DegenerateReason.NO_PERFECT_MATCHING)

    # Pair i is FR i with its matched DP; pair i depends on pair j when FR i
    # is influenced by pair j's DP. Edges come from one pass over the pattern.
    owner = np.argsort(match_fr)  # the FR matched to each DP
    dep[np.arange(n), match_fr] = False  # a pair does not depend on itself
    flat = np.flatnonzero(dep)
    on = owner[flat % n].tolist()
    ends = np.searchsorted(flat, np.arange(n, n * n + 1, n)).tolist()
    adj = [on[start:end] for start, end in zip([0] + ends, ends)]

    comps = _strongly_connected(adj)
    pairs = tuple(enumerate(match_fr.tolist()))

    if len(comps) == m:
        if not any(adj):
            return Uncoupled(pairs)
        return Decoupled(tuple(pairs[i] for i in _dependency_order(adj)))

    comp_of = [0] * m
    for ci, comp in enumerate(comps):
        for v in comp:
            comp_of[v] = ci
    cond = [sorted({comp_of[w] for v in comp for w in adj[v]} - {ci})
            for ci, comp in enumerate(comps)]
    order = _dependency_order(cond, key=lambda ci: comps[ci][0])
    blocks = tuple(tuple(pairs[v] for v in comps[ci]) for ci in order)
    return Coupled(blocks)


def _dependency_order(adj, key=None):
    """Topological order with dependencies first; stable by ``key`` (default:
    vertex index). ``adj[v]`` lists the vertices v depends on."""
    n = len(adj)
    key = key or (lambda v: v)
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
