"""Dependency-structure classification and adjustment ordering.

The randomized and exhaustive cases are checked against a brute-force
oracle that literally tries every row/column permutation, which is the
definitional answer for "diagonal-able" and "triangular-able" patterns.
"""

from __future__ import annotations

import hashlib
import itertools
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from axdesign import (
    Coupled,
    Decoupled,
    Degenerate,
    DesignParameter,
    DesignRange,
    DesignSpec,
    LinearModel,
    Uncoupled,
    Uniform,
    affected_frs,
    binarize,
    classify,
    sequence,
)
from axdesign import coupling
from axdesign.coupling import DegenerateReason
from axdesign.model import FunctionalRequirement

from conftest import load_spec


# ---------------------------------------------------------------------------
# Brute-force oracle: definitional classification by permutation search


def brute_force_kind(mask: np.ndarray) -> str:
    """Classify a boolean dependency pattern by exhaustive permutation.

    degenerate: not square, or no way to pick one distinct nonzero per row.
    uncoupled:  the pattern IS a permutation pattern (diagonal after
                reordering, nothing off it).
    decoupled:  some row+column reordering makes it lower-triangular with a
                full diagonal.
    coupled:    everything else.
    """
    m, n = mask.shape
    if m != n:
        return "degenerate"
    perms = list(itertools.permutations(range(n)))
    if not any(all(mask[i][p[i]] for i in range(n)) for p in perms):
        return "degenerate"
    for p in perms:
        if all(mask[i][j] == (j == p[i]) for i in range(n) for j in range(n)):
            return "uncoupled"
    for rp in perms:
        for cp in perms:
            diag_full = all(mask[rp[i]][cp[i]] for i in range(n))
            upper_empty = all(
                not mask[rp[i]][cp[j]] for i in range(n) for j in range(i + 1, n)
            )
            if diag_full and upper_empty:
                return "decoupled"
    return "coupled"


# ---------------------------------------------------------------------------
# Binarization

_FRS = tuple(FunctionalRequirement(f"f{i}", DesignRange(1.0, 0.1, 0.1)) for i in range(2))
_DPS = tuple(DesignParameter(f"d{j}", 1.0) for j in range(2))


def test_binarize_uses_strict_magnitude_threshold():
    out = binarize([[1.0, 1e-9], [0.5, 1.0]], epsilon=1e-6)
    assert out.tolist() == [[True, False], [True, True]]


def test_binarize_zero_epsilon_keeps_any_nonzero():
    out = binarize([[0.0, -0.3], [2.0, 0.0]])
    assert out.tolist() == [[False, True], [True, False]]


def test_binarize_epsilon_exactly_at_magnitude_excludes():
    # Strict comparison: |a| must exceed epsilon, equality does not count.
    out = binarize([[0.5]], epsilon=0.5)
    assert out.tolist() == [[False]]


_BAD_EPSILONS = (-1.0, float("nan"), float("inf"), True, False, 10**400, "0.1")


@pytest.mark.parametrize("epsilon", _BAD_EPSILONS,
                         ids=["-1", "nan", "inf", "True", "False", "10**400", "str"])
def test_bad_epsilon_is_rejected_everywhere(epsilon):
    entries = [[1.0, 0.5], [0.0, 1.0]]
    takers = [lambda: binarize(entries, epsilon), lambda: classify(entries, epsilon),
              lambda: affected_frs(entries, 0, epsilon),
              lambda: DesignSpec(_FRS, _DPS, entries, epsilon=epsilon)]
    for take in takers:
        with pytest.raises(ValueError, match=r"^epsilon must be a finite number >= 0$"):
            take()


def test_epsilon_is_kept_as_a_float():
    spec = DesignSpec(_FRS, _DPS, np.eye(2), epsilon=1)
    assert type(spec.epsilon) is float and spec.epsilon == 1.0


@pytest.mark.parametrize("entries", [[[1.0, 10**400], [0.0, 1.0]],
                                     [[1.0, 0.0], [0.0, -(10**400)]]])
def test_integers_beyond_float64_are_rejected_everywhere(entries):
    takers = [binarize, classify, lambda m: affected_frs(m, 0),
              lambda m: DesignSpec(_FRS, _DPS, m)]
    for take in takers:
        with pytest.raises(ValueError, match=r"^design matrix entries must all be finite$"):
            take(entries)
    # The shape is still checked first.
    for take in takers[:3]:
        with pytest.raises(ValueError, match="must be 2-D"):
            take(entries[0])


# One pass of binarize covers whole rows, at least one, of at most
# _PASS_ENTRIES entries; the strategies below draw shapes around that.
_PASS = coupling._PASS_ENTRIES
_SUBNORMAL = 5e-324


@st.composite
def _pass_shapes(draw):
    """A height and width: whole passes plus a partial one, or a single row
    wider than a pass."""
    width = draw(st.one_of(st.integers(1, 64), st.integers(64, 2 * _PASS),
                           st.sampled_from([_PASS - 1, _PASS, _PASS + 1])))
    per_pass = max(1, _PASS // width)
    height = draw(st.integers(0, 3)) * per_pass + draw(st.integers(0, per_pass - 1))
    return max(height, 1), width


def _laid_out(rng, entries, layout):
    """``entries`` as the same matrix in another memory layout."""
    if layout == "fortran":
        return np.asfortranarray(entries)
    if layout == "strided":
        wide = rng.normal(size=(2 * entries.shape[0], 3 * entries.shape[1]))
        view = wide[::2, ::3]
        view[...] = entries
        return view
    if layout == "read-only":
        entries.setflags(write=False)
    return entries


def _entries(rng, shape, eps):
    """Entries drawn from the values at which a threshold can go wrong:
    signed zeros, subnormals, exactly +-eps and its neighbours, and a few
    ordinary and huge magnitudes."""
    edge = np.array([0.0, -0.0, _SUBNORMAL, -_SUBNORMAL, 2.2e-308, eps, -eps,
                     np.nextafter(eps, np.inf), -np.nextafter(eps, np.inf),
                     np.nextafter(eps, 0.0), 1.0, -1e308, sys.float_info.max])
    entries = rng.normal(size=shape) * 10.0 ** rng.integers(-5, 5, size=shape)
    pick = rng.random(shape) < 0.5
    entries[pick] = rng.choice(edge, size=int(pick.sum()))
    return entries


_EPSILONS = st.one_of(st.sampled_from([0.0, _SUBNORMAL, 1e-300, 0.5, 1.0, 1e300]),
                      st.floats(0.0, 1e10))


@settings(max_examples=60, deadline=None)
@given(shape=_pass_shapes(), eps=_EPSILONS, seed=st.integers(0, 2**32 - 1),
       layout=st.sampled_from(["c", "fortran", "strided", "read-only"]))
@example(shape=(3 * (_PASS // 7) + 2, 7), eps=0.0, seed=0, layout="c")
@example(shape=(1, _PASS + 1), eps=1.0, seed=0, layout="fortran")
@example(shape=(3, _PASS + 5), eps=_SUBNORMAL, seed=1, layout="strided")
def test_binarize_matches_the_magnitude_test(shape, eps, seed, layout):
    rng = np.random.default_rng(seed)
    entries = _laid_out(rng, _entries(rng, shape, eps), layout)
    before = entries.copy()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        dep = binarize(entries, eps)
    expected = np.abs(np.asarray(entries, float)) > eps
    assert dep.dtype == bool and dep.shape == shape
    assert np.array_equal(dep, expected)
    assert np.array_equal(entries, before)


@settings(max_examples=60, deadline=None)
@given(shape=_pass_shapes(), where=st.sampled_from(["first", "middle", "last"]),
       bad=st.sampled_from([np.nan, np.inf, -np.inf]), seed=st.integers(0, 2**32 - 1),
       epsilon=st.one_of(st.just(0.0), st.sampled_from(_BAD_EPSILONS)))
@example(shape=(2 * (_PASS // 9) + 1, 9), where="last", bad=np.nan, seed=0, epsilon=0.0)
@example(shape=(2, _PASS + 1), where="last", bad=-np.inf, seed=0, epsilon=True)
def test_binarize_finds_a_non_finite_entry_in_any_pass(shape, where, bad, seed, epsilon):
    # The entry's fault is raised before a bad epsilon's, with no warning.
    rng = np.random.default_rng(seed)
    entries = rng.normal(size=shape)
    height, width = shape
    per_pass = max(1, _PASS // width)
    last = (height - 1) // per_pass  # index of the last pass
    first_row = {"first": 0, "middle": last // 2, "last": last}[where] * per_pass
    row = rng.integers(first_row, min(height, first_row + per_pass))
    entries[row, rng.integers(width)] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^design matrix entries must all be finite$"):
            binarize(entries, epsilon)


def test_classify_makes_no_float_copy_of_a_float64_matrix():
    # The pattern (n**2 bytes) is the only full-size array classify makes;
    # a float copy or a bool temporary beside it would pass 1.6 n**2.
    n = 1000
    ring = np.eye(n) + np.roll(np.eye(n), 1, axis=1)
    tracemalloc.start()
    try:
        assert isinstance(classify(ring), Coupled)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.6 * n * n


# ---------------------------------------------------------------------------
# The matrix contract: one read-only float64 array


def test_matrices_are_checked_and_stored_read_only():
    # A spec and a linear model keep a frozen float64 copy; classify checks
    # what it reads, and reads a float64 array in place.
    frs = tuple(FunctionalRequirement(f"f{i}", DesignRange(1.0, 0.1, 0.1)) for i in range(2))
    dps = tuple(DesignParameter(f"d{j}", 1.0) for j in range(2))
    takers = [lambda m: DesignSpec(frs, dps, m).matrix,
              lambda m: LinearModel(m, [Uniform(0.0, 1.0)] * 2).matrix]
    for take in takers:
        entries = np.array([[1, 2], [3, 4]])
        stored = take(entries)
        assert stored.dtype == np.float64 and stored.tolist() == [[1.0, 2.0], [3.0, 4.0]]
        entries[0, 0] = 9
        assert stored[0, 0] == 1.0
        with pytest.raises(ValueError):
            stored[0, 0] = 9.0
    for take in takers + [classify]:
        for bad in ([[float("inf"), 0.0], [0.0, 1.0]], [1.0, 2.0], np.zeros((0, 2))):
            with pytest.raises(ValueError):
                take(bad)
    entries = np.eye(2)
    assert coupling._float64(entries) is entries


# ---------------------------------------------------------------------------
# Classification of hand-built patterns


def test_diagonal_matrix_is_uncoupled():
    cls = classify(np.diag([2.0, -1.0, 0.5]))
    assert isinstance(cls, Uncoupled)
    assert cls.pairs == ((0, 0), (1, 1), (2, 2))


def test_antidiagonal_matrix_is_uncoupled_with_permuted_pairs():
    cls = classify([[0.0, 0.0, 1.0], [0.0, 1.0, 0.0], [1.0, 0.0, 0.0]])
    assert isinstance(cls, Uncoupled)
    assert cls.pairs == ((0, 2), (1, 1), (2, 0))


def test_lower_triangular_matrix_is_decoupled_in_cascade_order():
    cls = classify([[1.0, 0.0, 0.0], [0.6, 1.0, 0.0], [0.3, 0.5, 1.0]])
    assert isinstance(cls, Decoupled)
    assert cls.order == ((0, 0), (1, 1), (2, 2))
    assert sequence(cls) == ((0, 0), (1, 1), (2, 2))


def test_full_matrix_is_coupled_single_block():
    cls = classify(np.ones((3, 3)))
    assert isinstance(cls, Coupled)
    assert len(cls.blocks) == 1
    assert sorted(fr for fr, _ in cls.blocks[0]) == [0, 1, 2]
    # Each block entry is an (fr, dp) pair and the matching is perfect.
    assert sorted(dp for _, dp in cls.blocks[0]) == [0, 1, 2]


def test_two_by_two_full_matrix_is_coupled():
    cls = classify([[1.0, 1.0], [1.0, 1.0]])
    assert isinstance(cls, Coupled)


def test_identity_two_by_two_is_uncoupled():
    cls = classify([[1.0, 0.0], [0.0, 1.0]])
    assert isinstance(cls, Uncoupled)


def test_non_square_matrix_is_degenerate():
    cls = classify(np.ones((2, 3)))
    assert isinstance(cls, Degenerate)
    assert cls.reason is DegenerateReason.NON_SQUARE
    # The shape never excuses a bad threshold.
    with pytest.raises(ValueError, match="epsilon"):
        classify(np.ones((2, 3)), epsilon=-1.0)


def test_zero_row_means_no_perfect_matching():
    cls = classify([[0.0, 0.0], [1.0, 1.0]])
    assert isinstance(cls, Degenerate)
    assert cls.reason is DegenerateReason.NO_PERFECT_MATCHING


def test_zero_column_means_no_perfect_matching():
    cls = classify([[1.0, 0.0], [1.0, 0.0]])
    assert isinstance(cls, Degenerate)
    assert cls.reason is DegenerateReason.NO_PERFECT_MATCHING


def test_epsilon_can_sever_the_only_matching():
    cls = classify([[1e-9, 0.0], [0.0, 1.0]], epsilon=1e-6)
    assert isinstance(cls, Degenerate)
    assert cls.reason is DegenerateReason.NO_PERFECT_MATCHING


def test_epsilon_can_relax_coupled_to_uncoupled():
    matrix = [[1.0, 1e-9], [1e-9, 1.0]]
    assert isinstance(classify(matrix), Coupled)
    assert isinstance(classify(matrix, epsilon=1e-6), Uncoupled)


def test_mixed_blocks_coupled_design_lists_all_blocks():
    # FRs 0 and 1 form a 2-cycle; FR 2 hangs off them as a singleton.
    matrix = [[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 1.0, 1.0]]
    cls = classify(matrix)
    assert isinstance(cls, Coupled)
    sizes = sorted(len(b) for b in cls.blocks)
    assert sizes == [1, 2]
    # Condensation order: the cyclic block must come before its dependent.
    flat = [fr for block in cls.blocks for fr, _ in block]
    assert flat.index(2) > flat.index(0)
    assert flat.index(2) > flat.index(1)


# ---------------------------------------------------------------------------
# Adjustment sequences


def test_sequence_of_uncoupled_follows_declaration_order():
    cls = classify(np.diag([1.0, 1.0]))
    assert sequence(cls) == ((0, 0), (1, 1))


def test_sequence_is_rejected_for_coupled_and_degenerate():
    with pytest.raises(ValueError, match="coupled"):
        sequence(classify(np.ones((2, 2))))
    with pytest.raises(ValueError, match="degenerate"):
        sequence(classify(np.ones((2, 3))))


def _sequence_is_valid(mask: np.ndarray, order) -> bool:
    """Each FR may depend only on its own DP or DPs set earlier."""
    seen = set()
    for fr, dp in order:
        if not mask[fr][dp]:
            return False
        deps = {j for j in range(mask.shape[1]) if mask[fr][j]}
        if not deps <= (seen | {dp}):
            return False
        seen.add(dp)
    return True


def test_permuted_triangular_matrix_yields_a_valid_sequence():
    base = np.array([[1.0, 0.0, 0.0], [0.5, 1.0, 0.0], [0.2, 0.4, 1.0]])
    rng = np.random.default_rng(2024)
    for _ in range(20):
        rp, cp = rng.permutation(3), rng.permutation(3)
        shuffled = base[np.ix_(rp, cp)]
        cls = classify(shuffled)
        assert isinstance(cls, Decoupled)
        assert _sequence_is_valid(shuffled != 0, cls.order)


def test_decoupled_order_breaks_ties_by_fr_index():
    # FRs 0 and 1 are both independent sources; 0 must come first.
    cls = classify([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 1.0]])
    assert isinstance(cls, Decoupled)
    assert [fr for fr, _ in cls.order] == [0, 1, 2]


# ---------------------------------------------------------------------------
# Change-impact queries


def test_affected_frs_identity_touches_only_own_row():
    assert affected_frs(np.eye(3), 2) == {2}
    assert affected_frs(np.eye(3), np.int64(1)) == {1}


def test_affected_frs_shared_parameter_touches_both():
    assert affected_frs([[2.0, 2.0], [8.0, -8.0]], 1) == {0, 1}


def test_affected_frs_zero_column_touches_nothing():
    assert affected_frs([[1.0, 0.0], [1.0, 0.0]], 1) == set()


def test_affected_frs_respects_epsilon():
    assert affected_frs([[1.0, 1e-9], [0.0, 1.0]], 1, epsilon=1e-6) == {1}


def test_affected_frs_rejects_out_of_range_dp():
    with pytest.raises(ValueError):
        affected_frs(np.eye(2), 2)
    with pytest.raises(ValueError):
        affected_frs(np.eye(2), -1)
    with pytest.raises(ValueError):
        affected_frs(np.eye(2), True)


@settings(max_examples=60, deadline=None)
@given(shape=_pass_shapes(), eps=_EPSILONS, seed=st.integers(0, 2**32 - 1),
       layout=st.sampled_from(["c", "fortran", "strided", "read-only"]),
       bad=st.sampled_from([None, np.nan, np.inf, -np.inf]))
@example(shape=(2 * (_PASS // 9) + 1, 9), eps=0.0, seed=0, layout="c", bad=np.nan)
def test_affected_frs_reads_the_column_of_the_pattern(shape, eps, seed, layout, bad):
    # Only the DP's column is thresholded, but every entry is still checked.
    rng = np.random.default_rng(seed)
    entries = _entries(rng, shape, eps)
    dp = int(rng.integers(shape[1]))
    if bad is not None:
        entries[rng.integers(shape[0]), rng.integers(shape[1])] = bad
    entries = _laid_out(rng, entries, layout)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if bad is not None:
            with pytest.raises(ValueError, match=r"^design matrix entries must all be finite$"):
                affected_frs(entries, dp, eps)
            return
        got = affected_frs(entries, dp, eps)
    assert got == set(np.flatnonzero(binarize(entries, eps)[:, dp]).tolist())


# ---------------------------------------------------------------------------
# Invariance and exhaustive agreement with the brute-force oracle


def test_classification_kind_is_permutation_invariant():
    rng = np.random.default_rng(7)
    for trial in range(60):
        n = int(rng.integers(2, 6))
        density = float(rng.uniform(0.2, 0.9))
        matrix = (rng.random((n, n)) < density).astype(float)
        base = classify(matrix)
        rp, cp = rng.permutation(n), rng.permutation(n)
        shuffled = classify(matrix[np.ix_(rp, cp)])
        assert shuffled.kind == base.kind, f"trial {trial}"
        if isinstance(base, Coupled):
            assert sorted(len(b) for b in shuffled.blocks) == \
                sorted(len(b) for b in base.blocks), f"trial {trial}"


def test_every_three_by_three_pattern_matches_brute_force():
    for bits in range(512):
        mask = np.array([[(bits >> (3 * i + j)) & 1 == 1 for j in range(3)]
                         for i in range(3)])
        got = classify(mask.astype(float)).kind
        assert got == brute_force_kind(mask), f"pattern {bits:09b}"


def test_block_structure_matches_matching_free_definition():
    # Two different valid matchings exist, but the block structure must not
    # depend on which one the matcher found: this pattern is one 2-cycle.
    for matrix in ([[1.0, 1.0], [1.0, 1.0]],
                   [[0.0, 1.0], [1.0, 1.0]],
                   [[1.0, 1.0], [1.0, 0.0]]):
        cls = classify(matrix)
        if isinstance(cls, Coupled):
            assert sorted(len(b) for b in cls.blocks) == [2]
        else:  # the two off-diagonal variants are triangular -> decoupled
            assert isinstance(cls, Decoupled)


# ---------------------------------------------------------------------------
# Exact matchings: a coupled block's FR and DP sets and the order of the
# blocks hold for every perfect matching, but which DP is listed beside
# which FR is the matcher's choice, so these pin it (a greedy start in FR
# index order, each FR taking its lowest free DP, then lookahead searches in
# Pothen-Fan phases).


@pytest.mark.parametrize("mask, blocks", [
    (np.ones((2, 2)), (((0, 0), (1, 1)),)),
    (np.ones((3, 3)), (((0, 0), (1, 1), (2, 2)),)),
    ([[0, 0, 1, 1, 1, 1], [1, 0, 1, 0, 0, 1], [1, 1, 0, 0, 0, 1],
      [1, 0, 1, 0, 0, 1], [1, 0, 1, 0, 0, 1], [1, 1, 0, 1, 0, 1]],
     (((1, 2), (3, 5), (4, 0)), ((2, 1),), ((5, 3),), ((0, 4),))),
    ([[0, 0, 0, 0, 1, 0], [1, 0, 0, 0, 1, 1], [0, 0, 1, 1, 1, 1],
      [0, 1, 1, 1, 0, 1], [0, 1, 1, 1, 0, 1], [1, 1, 1, 0, 1, 0]],
     (((0, 4),), ((1, 5), (2, 2), (3, 1), (4, 3), (5, 0)))),
    ([[0, 1, 1, 0, 0, 0], [0, 0, 1, 0, 0, 1], [1, 1, 0, 1, 0, 1],
      [0, 0, 0, 1, 0, 0], [1, 1, 0, 1, 1, 0], [0, 1, 1, 0, 0, 0]],
     (((0, 2), (5, 1)), ((1, 5),), ((3, 3),), ((2, 0),), ((4, 4),))),
])
def test_coupled_blocks_list_the_pinned_matching(mask, blocks):
    cls = classify(np.asarray(mask, dtype=float))
    assert isinstance(cls, Coupled)
    assert cls.blocks == blocks


# ---------------------------------------------------------------------------
# Large patterns: no recursion depth limit, and agreement with scipy's
# graph routines as an independent oracle


def _permuted(mask, seed):
    rng = np.random.default_rng(seed)
    n = mask.shape[0]
    return mask[np.ix_(rng.permutation(n), rng.permutation(n))]


def test_two_thousand_pair_ring_is_one_coupled_block():
    n = 2000
    rows = np.arange(n)
    mask = np.zeros((n, n), dtype=bool)
    mask[rows, rows] = mask[rows, (rows + 1) % n] = True
    cls = classify(_permuted(mask, 11).astype(float))
    assert isinstance(cls, Coupled)
    assert len(cls.blocks) == 1
    assert sorted(fr for fr, _ in cls.blocks[0]) == list(range(n))


def test_permuted_dense_lower_triangle_is_decoupled():
    mask = _permuted(np.tril(np.ones((300, 300), dtype=bool)), 12)
    cls = classify(mask.astype(float))
    assert isinstance(cls, Decoupled)
    assert _sequence_is_valid(mask, cls.order)


def _scipy_blocks(masks):
    """FR sets of the strong components of the matched-pair digraph, for
    each pattern in a stack of k n x n patterns. One scipy call serves the
    whole stack, on its block-diagonal union: no edge crosses from one
    pattern to another, so neither a matching nor a component does."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components, maximum_bipartite_matching

    k, n, _ = masks.shape
    which, frs, dps = np.nonzero(masks)
    frs, dps = which * n + frs, which * n + dps
    union = csr_matrix((np.ones(frs.size), (frs, dps)), shape=(k * n, k * n))
    match = maximum_bipartite_matching(union, perm_type="column")
    assert (match >= 0).all()
    owner = np.empty(k * n, dtype=np.int64)
    owner[match] = np.arange(k * n)
    pairs = csr_matrix((np.ones(frs.size), (frs, owner[dps])), shape=(k * n, k * n))
    _, labels = connected_components(pairs, directed=True, connection="strong")
    out = []
    for mine in labels.reshape(k, n).tolist():
        comps = {}
        for fr, label in enumerate(mine):
            comps.setdefault(label, set()).add(fr)
        out.append({frozenset(comp) for comp in comps.values()})
    return out


def test_large_sparse_blocks_match_scipy_strong_components():
    n = 2000
    rng = np.random.default_rng(13)
    rows = np.arange(n)
    mask = np.zeros((n, n), dtype=bool)
    mask[rows[:-1], rows[:-1]] = mask[rows[:-1], rows[1:]] = True
    mask[n - 1, 0] = True
    mask[rows, rng.integers(0, n, n)] = True
    mask = _permuted(mask, 14)

    cls = classify(mask.astype(float))
    assert isinstance(cls, Coupled)
    assert {frozenset(fr for fr, _ in block) for block in cls.blocks} == \
        _scipy_blocks(mask[None])[0]


# ---------------------------------------------------------------------------
# Every pattern up to 4x4 against brute force over permutation pairs


def _all_patterns(n):
    """Every n x n pattern; bit k of pattern c is entry (k // n, k % n)."""
    codes = np.arange(1 << (n * n))
    return (codes[:, None] >> np.arange(n * n) & 1).astype(bool).reshape(-1, n, n)


def _brute_force_all(n):
    """(kind, lexicographically smallest adjustment sequence or None) for
    every n x n pattern, in code order.

    A sequence of pairs (frs[k], dps[k]) is valid exactly when reordering
    rows by ``frs`` and columns by ``dps`` makes the pattern lower
    triangular with a full diagonal, so one bit test per permutation pair
    (all diagonal bits set, no bit above it) checks all patterns at once.
    Pairs are visited in the lexicographic order of their sequences, and a
    pattern keeps the first valid one.
    """
    codes = np.arange(1 << (n * n))
    perms = list(itertools.permutations(range(n)))
    has_perm = np.zeros(codes.size, dtype=bool)
    is_perm = np.zeros(codes.size, dtype=bool)
    for p in perms:
        diag = sum(1 << (i * n + p[i]) for i in range(n))
        has_perm |= codes & diag == diag
        is_perm |= codes == diag
    seqs = sorted(tuple(zip(frs, dps)) for frs in perms for dps in perms)
    best = [None] * codes.size
    for seq in seqs:
        diag = sum(1 << (fr * n + dp) for fr, dp in seq)
        above = sum(1 << (fr * n + dp) for k, (fr, _) in enumerate(seq)
                    for _, dp in seq[k + 1:])
        for c in np.flatnonzero((codes & diag == diag) & (codes & above == 0)).tolist():
            if best[c] is None:
                best[c] = seq
    kinds = np.where(~has_perm, "degenerate",
                     np.where(is_perm, "uncoupled",
                              np.where([s is not None for s in best], "decoupled",
                                       "coupled")))
    return kinds.tolist(), best


def _blocks_are_a_valid_listing(mask, blocks):
    """Whether coupled ``blocks`` hold a perfect matching on nonzero entries,
    every block has a pair and one has two or more, and each block depends
    only on DPs of its own and of earlier blocks."""
    rows = mask.tolist()
    n = len(rows)
    pairs = [pair for block in blocks for pair in block]
    block_of_dp = {dp: k for k, block in enumerate(blocks) for _, dp in block}
    return (sorted(fr for fr, _ in pairs) == list(range(n))
            and sorted(block_of_dp) == list(range(n))
            and all(rows[fr][dp] for fr, dp in pairs)
            and all(blocks) and max(map(len, blocks)) >= 2
            and all(block_of_dp[dp] <= k for k, block in enumerate(blocks)
                    for fr, _ in block for dp in range(n) if rows[fr][dp]))


# sha256 of the repr of every classification below, one per line. It holds
# the coupled block listings, whose pairs come from the matching that
# _max_matching finds, so a change of matcher re-pins it; the checks above
# it hold for any matching.
ALL_PATTERNS_SHA256 = "6a114440764d2c1e09fe370a45497528ca1a39925616f3925731bb50b43de600"


def test_every_pattern_up_to_four_by_four_matches_brute_force():
    digest = hashlib.sha256()
    counts = {}
    for n in range(1, 5):
        kinds, best = _brute_force_all(n)
        masks = _all_patterns(n)
        coupled = []
        for c, mask in enumerate(masks):
            cls = classify(mask.astype(float))
            digest.update(repr(cls).encode() + b"\n")
            assert cls.kind == kinds[c], f"{n}x{n} pattern {c}"
            if isinstance(cls, (Uncoupled, Decoupled)):
                assert sequence(cls) == best[c], f"{n}x{n} pattern {c}"
            if isinstance(cls, Coupled):
                assert _blocks_are_a_valid_listing(mask, cls.blocks), f"{n}x{n} pattern {c}"
                coupled.append((c, cls.blocks))
            counts[cls.kind] = counts.get(cls.kind, 0) + 1
        if coupled:
            codes = [c for c, _ in coupled]
            for (c, blocks), expected in zip(coupled, _scipy_blocks(masks[codes])):
                got = {frozenset(fr for fr, _ in block) for block in blocks}
                assert got == expected, f"{n}x{n} pattern {c}"
    assert sum(counts.values()) == 2 + 16 + 512 + 65536
    assert all(counts[kind] for kind in ("uncoupled", "decoupled", "coupled", "degenerate"))
    assert digest.hexdigest() == ALL_PATTERNS_SHA256


# ---------------------------------------------------------------------------
# Routing: decoupled and uncoupled patterns are settled by the forced-pair
# peel alone; coupled and stalled degenerate ones go on to the matcher.


@pytest.fixture
def no_matcher(monkeypatch):
    def refuse(*args):
        raise AssertionError("the matcher ran")

    monkeypatch.setattr(coupling, "_max_matching", refuse)


@pytest.mark.parametrize("name, kind", [
    ("machining_cascade", "decoupled"), ("tank", "uncoupled"),
    ("faucet_mixer_tap", "uncoupled"), ("rod_cutting", "uncoupled"),
    ("disjoint", "uncoupled"),
])
def test_decoupled_and_uncoupled_fixtures_skip_the_matcher(no_matcher, name, kind):
    spec = load_spec(f"{name}.json")
    assert classify(spec.matrix, spec.epsilon).kind == kind


def test_permuted_dense_triangle_skips_the_matcher(no_matcher):
    mask = _permuted(np.tril(np.ones((300, 300), dtype=bool)), 12)
    cls = classify(mask.astype(float))
    assert isinstance(cls, Decoupled)
    assert _sequence_is_valid(mask, cls.order)


def test_degenerate_patterns_the_peel_settles_skip_the_matcher(no_matcher):
    # FR 0 is forced onto DP 0, which leaves FR 1 nothing.
    for matrix in ([[1.0, 0.0], [1.0, 0.0]], [[1.0, 0.0, 0.0], [0.0, 0.0, 0.0], [1.0, 1.0, 1.0]]):
        cls = classify(matrix)
        assert cls == Degenerate(DegenerateReason.NO_PERFECT_MATCHING)


@pytest.mark.parametrize("matrix", [
    np.ones((2, 2)),
    [[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 1.0, 1.0]],
    # No FR is ever forced, yet no perfect matching exists.
    [[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [1.0, 1.0, 0.0]],
])
def test_coupled_and_stalled_patterns_reach_the_matcher(no_matcher, matrix):
    with pytest.raises(AssertionError, match="the matcher ran"):
        classify(matrix)


def _staircase(n):
    """The diagonal and the sub-diagonal: FR i depends on DPs i - 1 and i."""
    return np.eye(n, dtype=bool) | np.eye(n, k=-1, dtype=bool)


def test_permuted_two_thousand_step_staircase_skips_the_matcher(no_matcher):
    mask = _permuted(_staircase(2000), 13)
    cls = classify(mask.astype(float))
    assert isinstance(cls, Decoupled)
    assert _sequence_is_valid(mask, cls.order)
    rows, width = coupling._packed_rows(mask)
    assert list(cls.order) == _bit_sliced_peel(mask, rows, width)


# ---------------------------------------------------------------------------
# Property: the peel against its bit-sliced reference


def _bit_sliced_peel(dep, rows, width):
    """Reference: the forced-pair peel with each FR's count of untaken DPs
    bit sliced across ints, bit 8i of ``planes[p]`` being bit p of FR i's
    count. A set of FRs is an int with bit 8i for FR i, the bytes of a numpy
    bool vector, so a DP's column converts to one directly, and taking a DP
    lowers the counts of its column with a borrow that ripples through the
    planes. ``coupling._peel`` must return exactly what this returns."""
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


@st.composite
def _peel_patterns(draw):
    """A square pattern up to 40 x 40 of random density; or a lower
    triangle with a full diagonal and random zeros below it; or such a
    triangle with one entry, maybe a diagonal one, moved above the
    diagonal. Rows and columns are permuted."""
    n = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mask = rng.random((n, n)) < draw(st.floats(0.0, 1.0))
    shape = draw(st.sampled_from(["random", "triangle", "moved"]))
    if shape != "random":
        mask = np.tril(mask)
        mask[np.arange(n), np.arange(n)] = True
    if shape == "moved" and n > 1:
        below = np.argwhere(mask)
        mask[tuple(below[rng.integers(len(below))])] = False
        above = np.argwhere(np.triu(np.ones((n, n), dtype=bool), k=1))
        mask[tuple(above[rng.integers(len(above))])] = True
    return mask[np.ix_(rng.permutation(n), rng.permutation(n))]


@settings(max_examples=500, deadline=None)
@given(mask=_peel_patterns())
def test_peel_returns_what_the_bit_sliced_reference_returns(mask):
    rows, width = coupling._packed_rows(mask)
    assert coupling._peel(mask, rows, width) == _bit_sliced_peel(mask, rows, width)


# ---------------------------------------------------------------------------
# Property: permuted triangles with extra entries, against scipy


@st.composite
def _triangles_with_extras(draw):
    n = draw(st.integers(1, 40))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    mask = np.tril(rng.random((n, n)) < draw(st.floats(0.0, 1.0)))
    mask[np.arange(n), np.arange(n)] = True
    mask |= rng.random((n, n)) < draw(st.sampled_from([0.0, 0.0, 0.01, 0.05, 0.2]))
    return mask[np.ix_(rng.permutation(n), rng.permutation(n))]


@settings(max_examples=300, deadline=None)
@given(mask=_triangles_with_extras())
def test_blocks_and_orders_of_perturbed_triangles(mask):
    n = mask.shape[0]
    cls = classify(mask.astype(float))
    expected = _scipy_blocks(mask[None])[0]
    if isinstance(cls, Coupled):
        assert {frozenset(fr for fr, _ in block) for block in cls.blocks} == expected
        assert any(len(block) > 1 for block in cls.blocks)
        return
    assert expected == {frozenset([fr]) for fr in range(n)}
    order = sequence(cls)
    assert sorted(fr for fr, _ in order) == list(range(n))
    assert _sequence_is_valid(mask, order)
    # Smallest ready FR first: every FR below the one taken that is not
    # placed yet still has more than one untaken DP, so it could not go there.
    taken, placed = np.zeros(n, dtype=bool), set()
    for fr, dp in order:
        for smaller in set(range(fr)) - placed:
            assert np.count_nonzero(mask[smaller] & ~taken) > 1, (smaller, fr)
        placed.add(fr)
        taken[dp] = True


# ---------------------------------------------------------------------------
# Property: the matcher against scipy on square patterns


@st.composite
def _square_patterns(draw):
    """A random square pattern; or one with a perfect matching planted in
    it; or one with an easy prefix the greedy start matches in full, then k
    FRs confined to k - 1 DPs, so FRs are left over and the search must find
    Hall's condition failing; or permuted dense diagonal blocks of 2-6
    pairs, each row with two entries into earlier blocks (n up to 60), which
    leave the greedy start many FRs to search for."""
    n = draw(st.integers(1, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mask = rng.random((n, n)) < draw(st.floats(0.0, 1.0))
    shape = draw(st.sampled_from(["random", "planted", "confined", "block"]))
    if shape == "planted":
        mask[np.arange(n), rng.permutation(n)] = True
    elif shape == "confined":
        k = draw(st.integers(1, n))
        mask[np.arange(n - k), np.arange(n - k)] = True
        mask[n - k:, rng.choice(n, n - k + 1, replace=False)] = False
        mask = mask[:, rng.permutation(n)]
    elif shape == "block":
        sizes = rng.integers(2, 7, 30)
        sizes = sizes[np.cumsum(sizes) <= draw(st.integers(6, 60))].tolist()
        n = sum(sizes)
        mask = np.zeros((n, n), dtype=bool)
        start = 0
        for size in sizes:
            mask[start:start + size, start:start + size] = True
            if start:
                for _ in range(2):
                    mask[np.arange(start, start + size), rng.integers(0, start, size)] = True
            start += size
        mask = mask[np.ix_(rng.permutation(n), rng.permutation(n))]
    return mask


@settings(max_examples=400, deadline=None)
@given(mask=_square_patterns())
# FR 0's lookahead finds DP 2 for FR 2's path, and FR 3's path needs it to
# find DP 3 later: a lookahead retired while the row still holds an
# unmatched DP misses that.
@example(mask=np.array([[0, 1, 1, 1], [1, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0]], dtype=bool))
def test_matcher_finds_a_perfect_matching_exactly_when_scipy_does(mask):
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import maximum_bipartite_matching

    n = mask.shape[0]
    rows, width = coupling._packed_rows(mask)
    matched = coupling._max_matching(rows, width)
    reference = maximum_bipartite_matching(csr_matrix(mask), perm_type="column")
    assert (matched is None) == bool((reference < 0).any())
    if matched is not None:
        held, owner = matched
        dps = [width - b for b in held]
        assert sorted(dps) == list(range(n))
        assert all(mask[fr, dp] for fr, dp in enumerate(dps))
        assert all(owner[b] == fr for fr, b in enumerate(held))


def _matching(mask):
    rows, width = coupling._packed_rows(np.asarray(mask, dtype=bool))
    matched = coupling._max_matching(rows, width)
    return None if matched is None else [width - b for b in matched[0]]


def test_a_search_blocked_by_its_phase_is_retried_in_the_next():
    # The greedy start gives FRs 0, 1, 2 DPs 0, 2, 1 and leaves FRs 3 and 4.
    # In phase 1 FR 3 takes DP 0 through FR 0, which moves to DP 3. Every
    # path from FR 4 then passes DP 0 (DP 0 -> FR 3 -> DP 2 -> FR 1 -> DP 4
    # is one), which this phase has visited, so FR 4 fails and waits for
    # phase 2.
    mask = [[1, 1, 1, 1, 0], [1, 0, 1, 0, 1], [1, 1, 0, 0, 0],
            [1, 1, 1, 0, 0], [1, 1, 0, 0, 0]]
    assert _matching(mask) == [3, 4, 1, 2, 0]
    assert classify(np.asarray(mask, dtype=float)) == Coupled(
        (((2, 1), (4, 0)), ((3, 2),), ((0, 3),), ((1, 4),)))


def test_a_search_that_fails_after_its_phase_augmented_is_not_final():
    # FRs 1-3 share DPs 0 and 2. FR 2 augments in phase 1, then FR 3 fails:
    # in the same phase that proves nothing, so FR 3 searches again in
    # phase 2, fails before any augmentation there, and that is the proof.
    mask = [[1, 1, 0, 1], [1, 0, 1, 0], [1, 0, 1, 0], [1, 0, 1, 0]]
    assert _matching(mask) is None
    assert classify(np.asarray(mask, dtype=float)) == \
        Degenerate(DegenerateReason.NO_PERFECT_MATCHING)
