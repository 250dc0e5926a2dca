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
``epsilon`` (strictly greater-than), find a maximum bipartite matching by
augmenting paths, build the digraph on matched pairs (pair p depends on pair
q when p's FR is influenced by q's DP), and take strongly connected
components. The block structure is invariant to which maximum matching is
found; orders and block listings use stable tie-breaks (FR declaration
order), so results are deterministic.
"""

from __future__ import annotations

import heapq
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
        arr = np.array(entries, dtype=np.float64, copy=True)
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError("design matrix must be 2-D with at least one row and column")
        if not np.all(np.isfinite(arr)):
            raise ValueError("design matrix entries must all be finite")
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
    dm = matrix if isinstance(matrix, DesignMatrix) else DesignMatrix(matrix)
    if not (isinstance(epsilon, (int, float)) and math.isfinite(epsilon)) or epsilon < 0:
        raise ValueError("epsilon must be a finite number >= 0")
    return np.abs(dm.entries) > epsilon


def _max_matching(dep_rows, n_dps):
    """Maximum bipartite matching by augmenting paths (Kuhn).

    Returns (size, match_fr) where match_fr[i] is the DP matched to FR i or
    -1. Deterministic: FRs and their candidate DPs are tried in index order.
    """
    match_dp = [-1] * n_dps
    match_fr = [-1] * len(dep_rows)

    def augment(fr, visited):
        for dp in dep_rows[fr]:
            if not visited[dp]:
                visited[dp] = True
                if match_dp[dp] == -1 or augment(match_dp[dp], visited):
                    match_dp[dp] = fr
                    match_fr[fr] = dp
                    return True
        return False

    size = 0
    for fr in range(len(dep_rows)):
        if augment(fr, [False] * n_dps):
            size += 1
    return size, match_fr


def _strongly_connected(adj):
    """Tarjan's algorithm; components are returned as sorted vertex lists."""
    n = len(adj)
    index = [None] * n
    low = [0] * n
    onstack = [False] * n
    stack = []
    counter = [0]
    comps = []

    def strong(v):
        index[v] = low[v] = counter[0]
        counter[0] += 1
        stack.append(v)
        onstack[v] = True
        for w in adj[v]:
            if index[w] is None:
                strong(w)
                low[v] = min(low[v], low[w])
            elif onstack[w]:
                low[v] = min(low[v], index[w])
        if low[v] == index[v]:
            comp = []
            while True:
                w = stack.pop()
                onstack[w] = False
                comp.append(w)
                if w == v:
                    break
            comps.append(sorted(comp))

    for v in range(n):
        if index[v] is None:
            strong(v)
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

    dep_rows = [np.flatnonzero(dep[i]).tolist() for i in range(m)]
    size, match_fr = _max_matching(dep_rows, n)
    if size < m:
        return Degenerate(DegenerateReason.NO_PERFECT_MATCHING)

    # Pair i owns FR i and its matched DP; pair i depends on pair j when
    # FR i is influenced by pair j's DP.
    owner = [0] * n
    for fr, dp in enumerate(match_fr):
        owner[dp] = fr
    adj = [sorted(owner[dp] for dp in dep_rows[i] if owner[dp] != i) for i in range(m)]

    comps = _strongly_connected(adj)
    pairs = tuple((i, match_fr[i]) for i in range(m))

    if all(len(c) == 1 for c in comps):
        if not any(adj):
            return Uncoupled(pairs)
        return Decoupled(tuple(pairs[i] for i in _dependency_order(adj)))

    comp_of = [0] * m
    for ci, comp in enumerate(comps):
        for v in comp:
            comp_of[v] = ci
    block_adj = [sorted({comp_of[w] for w in adj[v] if comp_of[w] != comp_of[v]})
                 for v in range(m)]
    cond = [sorted({c for v in comp for c in block_adj[v]}) for comp in comps]
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
