"""Interaction topologies: random partition networks."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .genotype import Genotype


class InfeasiblePartitionError(ValueError):
    """Raised when a dispersal spec implies an edge probability above 1."""

    def __init__(self, message: str, min_eta: float):
        super().__init__(message)
        self.min_eta = min_eta


@dataclass(frozen=True)
class PartitionSpec:
    """Community-structured network spec with a degree-preserving constraint.

    ``eta`` is the dispersal coefficient p_out/p_in; the two probabilities
    are derived from it and the target mean degree with
    ``derive_partition_probs`` so that varying eta does not vary degree.
    """

    community_size: int
    community_count: int
    k_avg: float
    eta: float

    def __post_init__(self):
        if self.community_size < 2:
            raise ValueError("community_size must be >= 2")
        if self.community_count < 2:
            raise ValueError("community_count must be >= 2")
        if self.k_avg <= 0:
            raise ValueError("k_avg must be > 0")
        if not 0.0 < self.eta <= 1.0:
            raise ValueError(f"eta must be in (0, 1], got {self.eta}")

    @property
    def node_count(self) -> int:
        return self.community_size * self.community_count


def derive_partition_probs(spec: PartitionSpec) -> tuple[float, float]:
    """Solve k_avg = (s-1)*p_in + s*(m-1)*p_out with p_out = eta*p_in.

    Returns (p_in, p_out). Raises InfeasiblePartitionError, naming the
    minimal feasible eta, when the solution would need p_in > 1.
    """
    s, m = spec.community_size, spec.community_count
    denom = (s - 1) + s * (m - 1) * spec.eta
    p_in = spec.k_avg / denom
    p_out = spec.eta * p_in
    if p_in > 1.0:  # p_out = eta * p_in <= p_in, as eta <= 1
        min_eta = (spec.k_avg - (s - 1)) / (s * (m - 1))
        raise InfeasiblePartitionError(
            f"eta={spec.eta} is infeasible for k_avg={spec.k_avg}: it requires "
            f"p_in={p_in:.6g} > 1; the minimal feasible eta is {min_eta:.6g}",
            min_eta=min_eta,
        )
    return p_in, p_out


@dataclass(frozen=True, eq=False)
class NetworkTopology:
    """Static undirected interaction graph with genotype-labelled communities.

    ``edges`` is a read-only ``(E, 2)`` int array of ``(u, v)`` rows with
    ``u < v``; any sequence of pairs is accepted and converted.
    """

    node_count: int
    edges: np.ndarray
    genotypes: tuple[Genotype, ...]
    communities: tuple[int, ...]

    def __post_init__(self):
        n = self.node_count
        if len(self.genotypes) != n or len(self.communities) != n:
            raise ValueError("genotype and community labels must cover every node")
        edges = np.array(self.edges, dtype=np.int64)
        if edges.size == 0:
            edges = edges.reshape(0, 2)
        if edges.ndim != 2 or edges.shape[1] != 2:
            raise ValueError(f"edges must be (u, v) pairs, got shape {edges.shape}")
        u, v = edges.T
        bad = (u < 0) | (u >= v) | (v >= n)
        if bad.any():
            raise ValueError(f"edge {edges[bad][0].tolist()} must satisfy 0 <= u < v < node_count")
        keys, counts = np.unique(u * n + v, return_counts=True)
        if (counts > 1).any():
            raise ValueError(f"duplicate edge {divmod(int(keys[counts > 1][0]), n)}")
        edges.flags.writeable = False
        object.__setattr__(self, "edges", edges)
        by_community: dict[int, Genotype] = {}
        for node in range(n):
            c = self.communities[node]
            g = by_community.setdefault(c, self.genotypes[node])
            if g != self.genotypes[node]:
                raise ValueError(f"community {c} mixes genotypes")

    def adjacency(self) -> np.ndarray:
        adj = np.zeros((self.node_count, self.node_count), dtype=bool)
        u, v = self.edges.T
        adj[u, v] = True
        adj[v, u] = True
        return adj


def degree_stats(net: NetworkTopology) -> tuple[float, int, int]:
    """(mean degree, min degree, number of isolated nodes)."""
    deg = np.bincount(net.edges.ravel(), minlength=net.node_count)
    return float(deg.mean()), int(deg.min()), int((deg == 0).sum())


# Uniforms drawn per block of rows when sampling a network, so that no
# N x N array is held at once.
DRAW_BLOCK = 1 << 16


def _sample_partition_edges(
    communities: np.ndarray, p_in: float, p_out: float, rng: np.random.Generator
) -> np.ndarray:
    """Upper-triangle ``(u, v)`` pairs, row by row, where the row-major
    ``(n, n)`` block of uniforms falls below the pair's edge probability;
    the block is drawn in row chunks, which consume the same stream."""
    n = len(communities)
    chunk = max(1, DRAW_BLOCK // max(n, 1))
    cols = np.arange(n)
    edges = [np.zeros((0, 2), dtype=np.int64)]
    for start in range(0, n, chunk):
        rows = cols[start : start + chunk, None]
        probs = np.where(communities[rows] == communities, p_in, p_out)
        hits = (rng.random(probs.shape) < probs) & (cols > rows)
        edges.append(np.argwhere(hits) + [start, 0])
    return np.concatenate(edges)


def build_partition_network_with_probs(
    community_size: int,
    genotypes: list[Genotype],
    p_in: float,
    p_out: float,
    rng: np.random.Generator,
) -> NetworkTopology:
    """Partition network from explicit edge probabilities (testing variant)."""
    if len(set(genotypes)) != len(genotypes):
        raise ValueError("community genotypes must be distinct")
    m = len(genotypes)
    communities = np.repeat(np.arange(m), community_size)
    edges = _sample_partition_edges(communities, p_in, p_out, rng)
    node_genotypes = tuple(genotypes[c] for c in communities)
    return NetworkTopology(
        node_count=community_size * m,
        edges=edges,
        genotypes=node_genotypes,
        communities=tuple(int(c) for c in communities),
    )


def build_partition_network(
    spec: PartitionSpec, genotypes: list[Genotype], rng: np.random.Generator
) -> NetworkTopology:
    """Sample a random partition network; community c carries genotypes[c].

    Within-community pairs connect independently with probability p_in,
    between-community pairs with p_out, both derived from the spec.
    Isolated nodes are kept, not resampled.
    """
    if len(genotypes) != spec.community_count:
        raise ValueError(
            f"need exactly {spec.community_count} community genotypes, got {len(genotypes)}"
        )
    p_in, p_out = derive_partition_probs(spec)
    return build_partition_network_with_probs(
        spec.community_size, genotypes, p_in, p_out, rng
    )
