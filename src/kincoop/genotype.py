"""Genotypes, the genotype space, Hamming similarity, and mutation."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

# Hard cap on enumerable spaces; beyond this a full population is not a
# sensible experiment and the enumeration would not fit a memory budget.
MAX_ENUMERABLE = 2**20


@dataclass(frozen=True)
class Genotype:
    """A fixed-length sequence of gene-variant identifiers."""

    genes: tuple[int, ...]

    def __post_init__(self):
        if len(self.genes) == 0:
            raise ValueError("genotype must have at least one locus")
        if any((not isinstance(g, (int, np.integer))) or g < 0 for g in self.genes):
            raise ValueError("gene variants must be non-negative integers")
        # normalize numpy ints so equality and hashing are type-stable
        object.__setattr__(self, "genes", tuple(int(g) for g in self.genes))

    def __len__(self) -> int:
        return len(self.genes)

    def __iter__(self):
        return iter(self.genes)

    def __getitem__(self, k: int) -> int:
        return self.genes[k]

    def to_string(self) -> str:
        """Serialize as hyphen-joined integers, e.g. "1-1-0-1"."""
        return "-".join(str(g) for g in self.genes)

    @classmethod
    def from_string(cls, text: str) -> "Genotype":
        try:
            genes = tuple(int(part) for part in text.strip().split("-"))
        except ValueError as exc:
            raise ValueError(f"malformed genotype string {text!r}") from exc
        return cls(genes)


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
        return len(g) == self.loci and all(0 <= v < self.variants for v in g)


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
    return sum(1 for x, y in zip(a.genes, b.genes) if x == y)


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
    arr = np.array([g.genes for g in genotypes], dtype=np.int64)
    return (arr[:, None, :] == arr[None, :, :]).mean(axis=2)


def enumerate_genotypes(space: GenotypeSpace) -> list[Genotype]:
    """All genotypes of the space in lexicographic order (stable across runs)."""
    if space.size > MAX_ENUMERABLE:
        raise ValueError(
            f"genotype space has {space.variants}^{space.loci} = {space.size} members, "
            f"above the enumeration cap of {MAX_ENUMERABLE}"
        )
    return [
        Genotype(genes)
        for genes in itertools.product(range(space.variants), repeat=space.loci)
    ]


def mutate(
    g: Genotype,
    spec: MutationSpec,
    space: GenotypeSpace,
    rng: np.random.Generator,
) -> Genotype:
    """Flip each locus independently with probability ``spec.mu``.

    A mutation always changes the locus: the replacement is drawn uniformly
    from the ``variants - 1`` other values, so ``mu`` is the exact per-locus
    change probability. Always consumes the same number of random draws
    regardless of ``mu``, keeping downstream streams aligned.
    """
    if not space.contains(g):
        raise ValueError(f"genotype {g.to_string()} is not a member of {space}")
    n = space.loci
    flips = rng.random(n) < spec.mu
    draws = rng.integers(0, space.variants - 1, size=n)
    if not flips.any():
        return g
    genes = np.array(g.genes, dtype=np.int64)
    # shift draws >= current value up by one: uniform over the other variants
    replacements = draws + (draws >= genes)
    genes = np.where(flips, replacements, genes)
    return Genotype(tuple(int(v) for v in genes))
