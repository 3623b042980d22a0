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

``PairwiseRowSum`` reproduces that order for a sparse matrix. Every stored
term goes to a fixed slot (an accumulator or a tail position of its leaf)
of a buffer laid out as numpy's leaves see the dense row; slots that hold
no term stay +0.0. Adding +0.0 to a nonzero partial sum changes nothing,
and under round-to-nearest a sum is -0.0 only if all its terms are -0.0.
So for a row with at least one term that is not -0.0, the sparse sum is
bit for bit the dense row's ``sum(axis=-1)``, whatever signed zeros fill
the rest of that row.
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


class PairwiseRowSum:
    """Row sums of a sparse ``(n_rows, n)`` matrix, equal bit for bit to
    ``dense.sum(axis=-1)`` on every row that holds a term other than -0.0.

    The terms' positions are given once, as ``rows`` and ``cols`` without
    repeats. A call takes the values of all terms as one flat array in the
    plan's layout: entry ``k`` is the value of term ``term[k]``. Each slot's
    first term is written and its later ones, which share an accumulator,
    are added in column order. Cost per call: one write per term, then the
    fixed combine over ``row_slots(n)`` slots per row, about ``8 * n / 128``.
    """

    def __init__(self, rows: np.ndarray, cols: np.ndarray, n_rows: int, n: int):
        rows = np.asarray(rows, dtype=np.intp)
        cols = np.asarray(cols, dtype=np.intp)
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

        # rank of each term among those sharing its slot, in column order
        by_slot = np.lexsort((cols, rows, block))
        slot_key = block[by_slot] * n_rows + rows[by_slot]
        first = np.flatnonzero(np.r_[True, slot_key[1:] != slot_key[:-1]])
        rank = np.empty(len(cols), dtype=np.intp)
        rank[by_slot] = np.arange(len(cols)) - np.repeat(first, np.diff(np.r_[first, len(cols)]))

        # flat layout: rank by rank, each rank's terms in input order
        self.term = np.argsort(rank, kind="stable")
        # buffer of (slot block, row)
        self._target = block[self.term] * n_rows + rows[self.term]
        self._first = int(np.count_nonzero(rank == 0))

        self._accumulators = ACCUMULATORS * n_leaves
        self._buffer = np.zeros((row_slots(n), n_rows))
        self._leaf_sums = np.empty((n_leaves, n_rows))
        self._pairs = np.empty((4, self._leaf_sums.size))
        self._quads = np.empty((2, self._leaf_sums.size))

    def __call__(self, values: np.ndarray) -> np.ndarray:
        """Row sums, shape ``(n_rows,)``, of the flat ``values``; the result
        may be a view that the next call overwrites."""
        flat = self._buffer.reshape(-1)
        first = self._first
        flat[self._target[:first]] = values[:first]
        # ufunc.at adds in index order, so each slot's later terms go in by rank
        np.add.at(flat, self._target[first:], values[first:])

        body = self._buffer[: self._accumulators].reshape(ACCUMULATORS, -1)
        np.add(body[0::2], body[1::2], out=self._pairs)
        np.add(self._pairs[0::2], self._pairs[1::2], out=self._quads)
        leaf_sums = self._leaf_sums
        np.add(self._quads[0], self._quads[1], out=leaf_sums.reshape(-1))
        last = leaf_sums[-1]
        for tail in self._buffer[self._accumulators :]:
            np.add(last, tail, out=last)

        def combine(node: Tree) -> np.ndarray:
            if isinstance(node, int):
                return leaf_sums[node]
            return combine(node[0]) + combine(node[1])

        return combine(self._tree)
