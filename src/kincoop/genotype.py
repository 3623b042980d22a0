"""Genotypes, the genotype space, Hamming similarity, and mutation.

A genotype is a plain tuple of ints, one gene variant per locus: ``(1, 1, 0, 1)``
is ``1-1-0-1`` in configs and CSV files (``format_genotype``, ``parse_genotype``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

# Hard cap on enumerable spaces; beyond this a full population is not a
# sensible experiment and the enumeration would not fit a memory budget.
MAX_ENUMERABLE = 2**20

Genotype = tuple[int, ...]


def format_genotype(g: Genotype) -> str:
    """Serialize as hyphen-joined integers, e.g. "1-1-0-1"."""
    return "-".join(map(str, g))


def parse_genotype(text: str) -> Genotype:
    """Inverse of ``format_genotype``; empty text or an empty or negative gene is malformed."""
    try:
        return tuple(int(part) for part in text.strip().split("-"))
    except ValueError as exc:
        raise ValueError(f"malformed genotype string {text!r}") from exc


@dataclass(frozen=True)
class GenotypeSpace:
    """All genotypes with ``loci`` positions and ``variants`` values per position."""

    loci: int
    variants: int

    def __post_init__(self):
        if self.loci < 1:
            raise ValueError("loci must be >= 1")
        if self.variants < 2:
            raise ValueError("variants must be >= 2")

    @property
    def size(self) -> int:
        return self.variants**self.loci

    def contains(self, g: Genotype) -> bool:
        """Whether ``g`` is a tuple of ``loci`` Python ints in ``[0, variants)``."""
        return type(g) is tuple and len(g) == self.loci and all(
            type(v) is int and 0 <= v < self.variants for v in g
        )


@dataclass(frozen=True)
class MutationSpec:
    """Per-locus mutation probability."""

    mu: float

    def __post_init__(self):
        if not 0.0 <= self.mu <= 1.0:
            raise ValueError(f"mutation probability must be in [0, 1], got {self.mu}")


def match_count(a: Genotype, b: Genotype) -> int:
    """Number of loci at which two equal-length genotypes agree."""
    if len(a) != len(b):
        raise ValueError(
            f"genotype lengths differ ({len(a)} vs {len(b)}); "
            "unequal-length genotypes are not supported"
        )
    return sum(1 for x, y in zip(a, b) if x == y)


def hamming_similarity(a: Genotype, b: Genotype) -> float:
    """Fraction of loci at which two equal-length genotypes agree.

    Equals 1 minus the normalized Hamming distance; 1.0 for identical
    genotypes, 0.0 when every locus differs.
    """
    return match_count(a, b) / len(a)


def similarity_matrix(genotypes: list[Genotype]) -> np.ndarray:
    """Symmetric matrix of pairwise Hamming similarities for a fixed population.

    Precomputed once per experiment so the per-interaction cost is a lookup.
    """
    if not genotypes:
        raise ValueError("need at least one genotype")
    n = len(genotypes[0])
    if any(len(g) != n for g in genotypes):
        raise ValueError("all genotypes must have the same length")
    arr = np.array(genotypes, dtype=np.int64)
    return (arr[:, None, :] == arr[None, :, :]).mean(axis=2)


def enumerate_genotypes(space: GenotypeSpace) -> list[Genotype]:
    """All genotypes of the space in lexicographic order (stable across runs)."""
    if space.size > MAX_ENUMERABLE:
        raise ValueError(
            f"genotype space has {space.variants}^{space.loci} = {space.size} members, "
            f"above the enumeration cap of {MAX_ENUMERABLE}"
        )
    return list(itertools.product(range(space.variants), repeat=space.loci))


def mutate(
    g: Genotype,
    spec: MutationSpec,
    space: GenotypeSpace,
    rng: np.random.Generator,
) -> Genotype:
    """Flip each locus independently with probability ``spec.mu``.

    A mutation always changes the locus: the replacement is drawn uniformly
    from the ``variants - 1`` other values, so ``mu`` is the exact per-locus
    change probability. Every call draws ``rng.random(loci)`` and then
    ``rng.integers(0, variants - 1, size=loci)``, whatever ``mu``, keeping
    downstream streams aligned; the child is built as a tuple of Python ints.
    """
    if not space.contains(g):
        raise ValueError(f"genotype {g!r} is not a member of {space}")
    n = space.loci
    flips = (rng.random(n) < spec.mu).tolist()
    draws = rng.integers(0, space.variants - 1, size=n).tolist()
    if not any(flips):
        return g
    # shift a draw >= the current value up by one: uniform over the other variants
    return tuple(d + (d >= v) if f else v for v, f, d in zip(g, flips, draws))
