"""Sparse row sums in numpy's pairwise summation order.

numpy's contiguous ``sum`` adds the terms of a row in a fixed tree that
depends only on the row length n (``pairwise_sum`` in numpy's
``loops_utils.h.src``; Higham, "The accuracy of floating point summation",
SIAM J. Sci. Comput. 1993):

- fewer than 8 terms are added in order, starting from 0.0;
- up to 128 terms (a leaf) go into 8 accumulators, accumulator k taking
  terms k, k + 8, k + 16, ... in order; they are combined as
  ``((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))``, and the last
  ``n % 8`` terms are then added one by one;
- longer rows split at ``n2 = n / 2 - (n / 2) % 8`` and the two halves'
  sums are added.

``PairwiseRowSum`` reproduces that order for a sparse matrix. One
``np.bincount`` adds every stored term into a fixed slot (an accumulator or
a tail position of its leaf) of a buffer laid out as numpy's leaves see the
dense row. It adds each slot's terms to 0.0 in input order, which for terms
in (row, column) order is the accumulator's own order; slots that hold no
term stay +0.0. The starting 0.0 and the empty slots change at most the
sign of a zero: under round-to-nearest a sum is -0.0 only if all its terms
are -0.0. So for a row with at least one term that is not -0.0, the sparse
sum is bit for bit the dense row's ``sum(axis=-1)``, whatever signed zeros
fill the rest of that row.
"""

from __future__ import annotations

from typing import Union

import numpy as np

# numpy's PW_BLOCKSIZE: rows up to this length are one leaf
LEAF_MAX = 128
ACCUMULATORS = 8

Tree = Union[int, tuple]


def pairwise_tree(n: int) -> tuple[list[tuple[int, int]], Tree]:
    """The leaves ``(start, length)`` that numpy's pairwise sum splits a row
    of ``n`` terms into, and the order in which their sums are added: a leaf
    index, or a ``(left, right)`` pair of subtrees."""
    leaves: list[tuple[int, int]] = []

    def split(start: int, length: int) -> Tree:
        if length <= LEAF_MAX:
            leaves.append((start, length))
            return len(leaves) - 1
        half = length // 2
        half -= half % ACCUMULATORS
        return (split(start, half), split(start + half, length - half))

    return leaves, split(0, n)


def row_slots(n: int) -> int:
    """Buffer slots per row of ``n`` terms: 8 accumulators per leaf, then the
    last leaf's tail of ``length % 8`` terms."""
    leaves, _ = pairwise_tree(n)
    return ACCUMULATORS * len(leaves) + leaves[-1][1] % ACCUMULATORS


def _combine(node: Tree, leaf_sums: np.ndarray) -> np.ndarray:
    """The sum of the leaves under ``node``, in numpy's order. A closure that
    called itself would be a reference cycle, holding each call's sums until
    the cycle collector ran."""
    if isinstance(node, int):
        return leaf_sums[node]
    return _combine(node[0], leaf_sums) + _combine(node[1], leaf_sums)


class PairwiseRowSum:
    """Row sums of a sparse ``(n_rows, n)`` matrix, equal bit for bit to
    ``dense.sum(axis=-1)`` on every row that holds a term other than -0.0.

    The terms' positions are given once, as ``rows`` and ``cols`` in (row,
    column) order without repeats. A call takes the values of all terms as
    one flat array in that order. Cost per call: one ``bincount`` of the
    terms into ``row_slots(n)`` slots per row, about ``8 * n / 128``, then
    the fixed combine over those slots.
    """

    def __init__(self, rows: np.ndarray, cols: np.ndarray, n_rows: int, n: int):
        rows = np.asarray(rows, dtype=np.intp)
        cols = np.asarray(cols, dtype=np.intp)
        if np.any(np.diff(rows * n + cols) <= 0):
            raise ValueError("terms must be in (row, column) order, without repeats")
        leaves, self._tree = pairwise_tree(n)
        starts = np.array([start for start, _ in leaves], dtype=np.intp)
        lengths = np.array([length for _, length in leaves], dtype=np.intp)
        n_leaves = len(leaves)
        body = lengths - lengths % ACCUMULATORS  # terms that go to accumulators

        # each term's slot block: an accumulator of its leaf, or a tail position
        leaf = np.searchsorted(starts, cols, side="right") - 1
        offset = cols - starts[leaf]
        block = np.where(
            offset < body[leaf],
            (offset % ACCUMULATORS) * n_leaves + leaf,
            ACCUMULATORS * n_leaves + offset - body[leaf],
        )
        # buffer of (slot block, row)
        self._bins = block * n_rows + rows
        self._shape = (row_slots(n), n_rows)
        self._accumulators = ACCUMULATORS * n_leaves

    def __call__(self, values: np.ndarray) -> np.ndarray:
        """Row sums, shape ``(n_rows,)``, of the flat ``values``."""
        slots = np.bincount(self._bins, values, self._shape[0] * self._shape[1])
        # float64 also when there are no terms, which bincount counts in int64
        slots = slots.astype(np.float64, copy=False).reshape(self._shape)
        # ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)), in place into r0
        body = slots[: self._accumulators].reshape(ACCUMULATORS, -1)
        for step in (1, 2, 4):
            body[:: 2 * step] += body[step :: 2 * step]
        leaf_sums = body[0].reshape(-1, self._shape[1])
        for tail in slots[self._accumulators :]:
            leaf_sums[-1] += tail
        return _combine(self._tree, leaf_sums)
