"""Guard on numpy's summation order.

The dispersal reward sums each agent's neighbour terms in the order of
numpy's pairwise row sum, so that it equals the dense ``sum(axis=-1)`` bit
for bit. ``PairwiseRowSum`` gets that order from one ``np.bincount`` into
numpy's accumulator slots, followed by numpy's fixed combine. These tests
compare the result with the installed numpy, so that a numpy release that
sums differently fails here with its cause named, not only as a digest
mismatch.
"""

import gc

import numpy as np
import pytest

from kincoop.pairsum import PairwiseRowSum, pairwise_tree, row_slots

SIZES = [1, 7, 8, 9, 64, 71, 128, 129, 135, 992, 1024, 4096]


def mixed_rows(rng, shape):
    """Mixed signs over 16 orders of magnitude, so that any change in the
    order of additions changes some low bits."""
    return rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 8, size=shape)


def assert_bits_equal(got, want, n):
    leaves, tree = pairwise_tree(n)
    assert np.array_equal(got.view(np.int64), want.view(np.int64)), (
        f"numpy {np.__version__} no longer sums a row of {n} terms in the pairwise "
        f"tree the dispersal reward reproduces: leaves (start, length) {leaves}, "
        f"added as {tree}, 8 accumulators per leaf"
    )


@pytest.mark.parametrize("n", SIZES)
def test_full_rows_match_numpy_sum(n):
    x = mixed_rows(np.random.default_rng(n), (6, n))
    rows, cols = np.divmod(np.arange(6 * n), n)
    row_sum = PairwiseRowSum(rows, cols, 6, n)
    got = row_sum(x.reshape(-1))
    assert_bits_equal(got, x.sum(axis=-1), n)


@pytest.mark.parametrize("n", SIZES)
def test_sparse_rows_match_dense_sum_with_signed_zeros(n):
    # the dense rows hold +0.0 and -0.0 off the stored terms, as the old
    # dense reward did; every row holds at least one term
    rng = np.random.default_rng(1000 + n)
    x = mixed_rows(rng, (6, n))
    stored = rng.random((6, n)) < 0.1
    stored[:, 0] |= ~stored.any(axis=1)
    zeros = np.where(rng.random((6, n)) < 0.5, -0.0, 0.0)
    dense = np.where(stored, x, zeros)
    rows, cols = np.nonzero(stored)
    row_sum = PairwiseRowSum(rows, cols, 6, n)
    got = row_sum(x[rows, cols])
    assert_bits_equal(got, dense.sum(axis=-1), n)


def test_rows_without_terms_sum_to_zero():
    row_sum = PairwiseRowSum(np.array([1]), np.array([5]), 3, 9)
    assert row_sum(np.array([2.5])).tolist() == [0.0, 2.5, 0.0]
    empty = PairwiseRowSum(np.zeros(0, dtype=int), np.zeros(0, dtype=int), 4, 4)
    assert empty(np.zeros(0)).tolist() == [0.0, 0.0, 0.0, 0.0]


def test_no_terms_give_float_zeros():
    # np.bincount returns int64 zeros when it is given no terms
    empty = PairwiseRowSum(np.zeros(0, dtype=int), np.zeros(0, dtype=int), 2, 300)
    assert empty(np.zeros(0)).dtype == np.float64


def test_repeated_term_is_rejected():
    with pytest.raises(ValueError, match="without repeats"):
        PairwiseRowSum(np.array([0, 1, 1]), np.array([2, 3, 3]), 2, 4)


def test_out_of_order_terms_are_rejected():
    # the exact bits rest on each accumulator taking its terms in column order
    with pytest.raises(ValueError, match=r"\(row, column\) order"):
        PairwiseRowSum(np.array([0, 0, 1]), np.array([3, 2, 0]), 2, 4)
    with pytest.raises(ValueError, match=r"\(row, column\) order"):
        PairwiseRowSum(np.array([1, 0]), np.array([0, 3]), 2, 4)


def test_calls_leave_no_cyclic_garbage():
    # a reference cycle per call would keep each call's buffers alive until
    # the cycle collector runs, and raise the dispersal run's peak memory
    rows, cols = np.divmod(np.arange(3 * 300), 300)
    row_sum = PairwiseRowSum(rows, cols, 3, 300)
    values = np.ones(len(rows))
    gc.collect()
    gc.disable()
    try:
        for _ in range(20):
            row_sum(values)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_tree_shapes():
    assert pairwise_tree(7) == ([(0, 7)], 0)
    assert pairwise_tree(128) == ([(0, 128)], 0)
    assert pairwise_tree(135) == ([(0, 64), (64, 71)], (0, 1))
    # unequal halves: 264 splits into 128 and 136, and 136 into 64 and 72
    assert pairwise_tree(264) == ([(0, 128), (128, 64), (192, 72)], (0, (1, 2)))
    leaves, _ = pairwise_tree(992)
    assert [length for _, length in leaves] == [120, 128] * 4


@pytest.mark.parametrize(
    "n,slots", [(1, 9), (7, 15), (8, 8), (64, 8), (71, 15), (135, 23), (1024, 64), (4096, 256)]
)
def test_row_slots(n, slots):
    # 8 accumulators per leaf, plus the last leaf's n % 8 tail
    assert row_slots(n) == slots
    empty = np.zeros(0, dtype=int)
    assert PairwiseRowSum(empty, empty, 1, n)._shape == (slots, 1)
