"""Dependency-structure classification and adjustment ordering.

The randomized and exhaustive cases are checked against a brute-force
oracle that literally tries every row/column permutation, which is the
definitional answer for "diagonal-able" and "triangular-able" patterns.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from axdesign import (
    Coupled,
    Decoupled,
    Degenerate,
    DegenerateReason,
    DesignMatrix,
    Uncoupled,
    affected_frs,
    binarize,
    classify,
    sequence,
)


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


def test_binarize_rejects_bad_epsilon():
    with pytest.raises(ValueError):
        binarize([[1.0]], epsilon=-1.0)
    with pytest.raises(ValueError):
        binarize([[1.0]], epsilon=float("nan"))


# ---------------------------------------------------------------------------
# DesignMatrix container


def test_design_matrix_validates_and_freezes_entries():
    dm = DesignMatrix([[1.0, 2.0], [3.0, 4.0]])
    assert dm.shape == (2, 2)
    assert dm.n_frs == 2 and dm.n_dps == 2
    with pytest.raises(ValueError):
        dm.entries[0, 0] = 9.0
    with pytest.raises(ValueError):
        DesignMatrix([[float("inf")]])
    with pytest.raises(ValueError):
        DesignMatrix([1.0, 2.0])
    with pytest.raises(ValueError):
        DesignMatrix(np.zeros((0, 2)))


def test_design_matrix_equality_and_hash():
    a = DesignMatrix([[1.0, 0.0], [0.0, 1.0]])
    b = DesignMatrix(np.eye(2))
    assert a == b
    assert hash(a) == hash(b)
    assert a != DesignMatrix([[1.0]])


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
# Exact matchings: which pairs a coupled block lists depends on the matching
# found, so these pin it (FRs and DPs searched in index order).


@pytest.mark.parametrize("mask, blocks", [
    (np.ones((2, 2)), (((0, 1), (1, 0)),)),
    (np.ones((3, 3)), (((0, 2), (1, 1), (2, 0)),)),
    ([[0, 0, 1, 1, 1, 1], [1, 0, 1, 0, 0, 1], [1, 1, 0, 0, 0, 1],
      [1, 0, 1, 0, 0, 1], [1, 0, 1, 0, 0, 1], [1, 1, 0, 1, 0, 1]],
     (((1, 5), (3, 2), (4, 0)), ((2, 1),), ((5, 3),), ((0, 4),))),
    ([[0, 0, 0, 0, 1, 0], [1, 0, 0, 0, 1, 1], [0, 0, 1, 1, 1, 1],
      [0, 1, 1, 1, 0, 1], [0, 1, 1, 1, 0, 1], [1, 1, 1, 0, 1, 0]],
     (((0, 4),), ((1, 5), (2, 3), (3, 2), (4, 1), (5, 0)))),
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


def test_large_sparse_blocks_match_scipy_strong_components():
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components, maximum_bipartite_matching

    n = 2000
    rng = np.random.default_rng(13)
    rows = np.arange(n)
    mask = np.zeros((n, n), dtype=bool)
    mask[rows[:-1], rows[:-1]] = mask[rows[:-1], rows[1:]] = True
    mask[n - 1, 0] = True
    mask[rows, rng.integers(0, n, n)] = True
    mask = _permuted(mask, 14)

    match = maximum_bipartite_matching(csr_matrix(mask), perm_type="column")
    owner = np.empty(n, dtype=np.int64)
    owner[match] = rows
    frs, dps = np.nonzero(mask)
    pairs = csr_matrix((np.ones(frs.size), (frs, owner[dps])), shape=(n, n))
    _, labels = connected_components(pairs, directed=True, connection="strong")
    expected = {frozenset(np.flatnonzero(labels == lab).tolist())
                for lab in np.unique(labels)}

    cls = classify(mask.astype(float))
    assert isinstance(cls, Coupled)
    assert {frozenset(fr for fr, _ in block) for block in cls.blocks} == expected
