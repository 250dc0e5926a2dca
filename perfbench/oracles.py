"""Output checks that do not go through the code under test.

Each check returns ``None`` when the output is right and a one-line reason
when it is not. The references are:

* the structure a pattern was built with, and for random patterns the
  Dulmage-Mendelsohn blocks found by ``scipy.sparse.csgraph`` (Hopcroft-Karp
  matching plus strongly connected components), never axdesign's classifier;
* closed-form probabilities from ``scipy.stats``: 1-D interval masses and the
  multivariate-normal rectangle probability (Genz QMC) for Gaussian linear
  designs, which Monte Carlo bits must match within ``K_SE`` standard errors;
* exact counts recomputed from a simulator's CSV.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import stats
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, maximum_bipartite_matching

__all__ = [
    "K_SE",
    "QMC_ABS",
    "as_float",
    "pattern_of",
    "check_sequence",
    "check_blocks",
    "reference_structure",
    "check_classification",
    "interval_probability",
    "scaled_interval_probability",
    "normal_box_probability",
    "check_bits",
    "parse_csv",
    "band_fractions",
]

# Monte Carlo bits must lie within K_SE standard errors of the exact value.
# A correct estimator misses by chance with probability 7e-6 per check.
K_SE = 4.5
# Absolute error allowed for the QMC rectangle probability itself.
QMC_ABS = 2e-4


def as_float(x) -> float:
    """Report numbers: infinities travel as the strings "inf"/"-inf"."""
    if isinstance(x, str):
        return {"inf": math.inf, "-inf": -math.inf}[x]
    return float(x)


def pattern_of(matrix, epsilon: float = 0.0) -> np.ndarray:
    return np.abs(np.asarray(matrix, dtype=np.float64)) > epsilon


def _pairs_are_matching(pattern, pairs) -> str | None:
    n_rows, n_cols = pattern.shape
    frs = [fr for fr, _ in pairs]
    dps = [dp for _, dp in pairs]
    if sorted(frs) != list(range(n_rows)) or sorted(dps) != list(range(n_cols)):
        return "pairs do not cover every FR and DP exactly once"
    for fr, dp in pairs:
        if not pattern[fr, dp]:
            return f"pair ({fr}, {dp}) sits on a zero entry"
    return None


def check_sequence(pattern, order) -> str | None:
    """A valid adjustment sequence: a perfect matching in which each FR
    depends only on its own DP and DPs adjusted before it."""
    order = [tuple(p) for p in order]
    bad = _pairs_are_matching(pattern, order)
    if bad:
        return bad
    position_of_dp = np.empty(pattern.shape[1], dtype=np.int64)
    for position, (_, dp) in enumerate(order):
        position_of_dp[dp] = position
    latest = np.where(pattern, position_of_dp[None, :], -1).max(axis=1)
    for position, (fr, _) in enumerate(order):
        if latest[fr] != position:
            return f"FR {fr} at step {position} depends on a DP adjusted at step {latest[fr]}"
    return None


def check_blocks(pattern, blocks) -> str | None:
    """Coupled blocks partition the matched pairs, and each block depends
    only on DPs of itself and of blocks listed before it."""
    pairs = [tuple(p) for block in blocks for p in block]
    bad = _pairs_are_matching(pattern, pairs)
    if bad:
        return bad
    if not any(len(block) >= 2 for block in blocks):
        return "coupled result has no block of two or more pairs"
    block_of_dp = np.empty(pattern.shape[1], dtype=np.int64)
    for b, block in enumerate(blocks):
        for _, dp in block:
            block_of_dp[dp] = b
    latest = np.where(pattern, block_of_dp[None, :], -1).max(axis=1)
    for b, block in enumerate(blocks):
        for fr, _ in block:
            if latest[fr] > b:
                return f"block {b} depends on the later block {latest[fr]}"
    return None


def reference_structure(pattern) -> tuple[str, set[frozenset[int]] | None]:
    """(class, FR sets of the coupled blocks) from scipy's graph routines.

    The block FR sets are the same for every maximum matching, so they can
    be compared with any correct classifier's output.
    """
    n_rows, n_cols = pattern.shape
    if n_rows != n_cols:
        return "degenerate", None
    graph = csr_matrix(pattern)
    match = maximum_bipartite_matching(graph, perm_type="column")
    if (match < 0).any():
        return "degenerate", None
    owner = np.empty(n_cols, dtype=np.int64)
    owner[match] = np.arange(n_rows)
    rows, cols = np.nonzero(pattern)
    keep = cols != match[rows]
    src, dst = rows[keep], owner[cols[keep]]
    if src.size == 0:
        return "uncoupled", set()
    pair_graph = csr_matrix((np.ones(src.size), (src, dst)), shape=(n_rows, n_rows))
    _, labels = connected_components(pair_graph, directed=True, connection="strong")
    sizes = np.bincount(labels)
    if (sizes < 2).all():
        return "decoupled", set()
    blocks = {frozenset(np.flatnonzero(labels == lab).tolist())
              for lab in np.flatnonzero(sizes >= 2)}
    return "coupled", blocks


def check_classification(pattern, result, expected: str,
                         expected_blocks: set[frozenset[int]] | None = None) -> str | None:
    """Check a classifier result given as ``(kind, payload)``: payload is
    the pair list for uncoupled/decoupled, the block list for coupled."""
    kind, payload = result
    if kind != expected:
        return f"classified {kind}, built as {expected}"
    if kind == "uncoupled":
        bad = _pairs_are_matching(pattern, [tuple(p) for p in payload])
        if bad:
            return bad
        if int(pattern.sum()) != pattern.shape[0]:
            return "uncoupled result for a pattern with off-pair entries"
    elif kind == "decoupled":
        return check_sequence(pattern, payload)
    elif kind == "coupled":
        bad = check_blocks(pattern, payload)
        if bad:
            return bad
        if expected_blocks is not None:
            got = {frozenset(fr for fr, _ in block) for block in payload if len(block) >= 2}
            if got != expected_blocks:
                return "coupled blocks differ from the blocks the pattern was built with"
    return None


def interval_probability(pdf: dict, lo: float, hi: float) -> float:
    """Mass of a spec pdf object on [lo, hi], from scipy.stats."""
    kind = pdf["kind"]
    if kind == "uniform":
        dist = stats.uniform(loc=pdf["lo"], scale=pdf["hi"] - pdf["lo"])
    elif kind == "normal":
        dist = stats.norm(loc=pdf["mu"], scale=pdf["sigma"])
    elif kind == "triangular":
        width = pdf["hi"] - pdf["lo"]
        dist = stats.triang((pdf["mode"] - pdf["lo"]) / width, loc=pdf["lo"], scale=width)
    elif kind == "empirical":
        samples = np.asarray(pdf["samples"], dtype=np.float64)
        return float(((samples >= lo) & (samples <= hi)).mean())
    else:
        raise ValueError(f"unknown pdf kind {kind!r}")
    return float(dist.cdf(hi) - dist.cdf(lo))


def scaled_interval_probability(pdf: dict, scale: float, lo: float, hi: float) -> float:
    """P(lo <= scale * X <= hi) for a nonzero ``scale``."""
    if pdf["kind"] == "empirical":
        # Scale the atoms, as the model does, so none moves across a bound.
        values = scale * np.asarray(pdf["samples"], dtype=np.float64)
        return float(((values >= lo) & (values <= hi)).mean())
    a, b = lo / scale, hi / scale
    return interval_probability(pdf, min(a, b), max(a, b))


def normal_box_probability(mean, cov, lo, hi) -> float:
    """P(lo <= X <= hi) for X ~ N(mean, cov), by scipy's Genz QMC."""
    return float(stats.multivariate_normal.cdf(
        np.asarray(hi), mean=np.asarray(mean), cov=np.asarray(cov),
        lower_limit=np.asarray(lo), abseps=QMC_ABS / 4, releps=0.0,
        rng=np.random.default_rng(20250709)))


def check_bits(bits, p_exact: float, n: int, what: str) -> str | None:
    """Monte Carlo bits from ``n`` samples against the exact probability."""
    bits = as_float(bits)
    if p_exact <= 0.0 or p_exact >= 1.0:
        return None if bits == (math.inf if p_exact <= 0 else 0.0) else \
            f"{what}: bits {bits} for exact probability {p_exact}"
    exact_bits = -math.log2(p_exact)
    scale = p_exact * math.log(2.0)
    se_bits = math.sqrt(p_exact * (1.0 - p_exact) / n) / scale
    allowed = K_SE * se_bits + QMC_ABS / scale
    if not abs(bits - exact_bits) <= allowed:
        return (f"{what}: bits {bits:.6g} vs exact {exact_bits:.6g} "
                f"({abs(bits - exact_bits) / se_bits:.1f} SE)")
    return None


def parse_csv(text: str) -> tuple[list[str], np.ndarray]:
    lines = text.splitlines()
    header = lines[0].split(",")
    values = np.array([[float(v) for v in line.split(",")] for line in lines[1:]],
                      dtype=np.float64).reshape(len(lines) - 1, len(header))
    return header, values


def band_fractions(values: np.ndarray, bands) -> tuple[list[float], float]:
    """Per-column and joint fraction of rows inside ``bands`` [(lo, hi)]."""
    inside = np.column_stack([(values[:, j] >= lo) & (values[:, j] <= hi)
                              for j, (lo, hi) in enumerate(bands)])
    n = values.shape[0]
    return ([int(c) / n for c in inside.sum(axis=0)],
            int(inside.all(axis=1).sum()) / n)
