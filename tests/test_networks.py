import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from kincoop.genotype import GenotypeSpace, enumerate_genotypes
from kincoop.networks import (
    InfeasiblePartitionError,
    NetworkTopology,
    PartitionSpec,
    build_complete_network,
    build_partition_network,
    build_partition_network_with_probs,
    degree_stats,
    derive_partition_probs,
)

EIGHT_GENOTYPES = enumerate_genotypes(GenotypeSpace(3, 2))


class TestDerivePartitionProbs:
    def test_reference_point(self):
        p_in, p_out = derive_partition_probs(PartitionSpec(8, 8, 9.0, 0.1))
        assert p_in == pytest.approx(9.0 / 12.6, abs=1e-12)
        assert p_out == pytest.approx(0.9 / 12.6, abs=1e-12)

    def test_eta_one_equalizes(self):
        p_in, p_out = derive_partition_probs(PartitionSpec(8, 8, 9.0, 1.0))
        assert p_in == pytest.approx(1 / 7, abs=1e-12)
        assert p_out == pytest.approx(1 / 7, abs=1e-12)

    def test_infeasible_eta_names_minimum(self):
        with pytest.raises(InfeasiblePartitionError) as excinfo:
            derive_partition_probs(PartitionSpec(8, 8, 9.0, 0.01))
        assert excinfo.value.min_eta == pytest.approx(2 / 56, abs=1e-12)
        assert f"{2 / 56:.6g}" in str(excinfo.value)

    def test_boundary_eta_feasible(self):
        p_in, p_out = derive_partition_probs(PartitionSpec(8, 8, 9.0, 2 / 56))
        assert p_in == pytest.approx(1.0, abs=1e-12)

    @given(
        st.integers(2, 20),
        st.integers(2, 20),
        st.floats(0.2, 30.0),
        st.floats(0.001, 1.0),
    )
    def test_mean_degree_recovered(self, s, m, k_avg, eta):
        spec = PartitionSpec(s, m, k_avg, eta)
        try:
            p_in, p_out = derive_partition_probs(spec)
        except InfeasiblePartitionError:
            return
        assert (s - 1) * p_in + s * (m - 1) * p_out == pytest.approx(k_avg, abs=1e-12)
        assert 0 < p_in <= 1 and 0 <= p_out <= 1

    def test_spec_invariants(self):
        with pytest.raises(ValueError):
            PartitionSpec(1, 8, 9.0, 0.1)
        with pytest.raises(ValueError):
            PartitionSpec(8, 8, 9.0, 0.0)
        with pytest.raises(ValueError):
            PartitionSpec(8, 8, 9.0, 1.2)
        with pytest.raises(ValueError):
            PartitionSpec(8, 8, -1.0, 0.5)


class TestCompleteNetwork:
    def test_sixty_four_agents(self):
        net = build_complete_network(enumerate_genotypes(GenotypeSpace(6, 2)))
        assert net.node_count == 64
        assert len(net.edges) == 64 * 63 // 2 == 2016
        assert degree_stats(net) == (63.0, 63, 0)

    def test_single_node(self):
        net = build_complete_network(EIGHT_GENOTYPES[:1])
        assert net.node_count == 1 and net.edges == ()

    def test_two_nodes_one_edge(self):
        net = build_complete_network(EIGHT_GENOTYPES[:2])
        assert net.edges == ((0, 1),)

    def test_singleton_communities(self):
        net = build_complete_network(EIGHT_GENOTYPES)
        assert net.communities == tuple(range(8))


class TestDegreeStats:
    def test_empty_edge_set_five_nodes(self):
        net = NetworkTopology(
            5, (), tuple(EIGHT_GENOTYPES[:5]), tuple(range(5))
        )
        assert degree_stats(net) == (0.0, 0, 5)


class TestTopologyInvariants:
    def test_self_edge_rejected(self):
        with pytest.raises(ValueError):
            NetworkTopology(2, ((0, 0),), tuple(EIGHT_GENOTYPES[:2]), (0, 1))

    def test_duplicate_edge_rejected(self):
        with pytest.raises(ValueError):
            NetworkTopology(2, ((0, 1), (0, 1)), tuple(EIGHT_GENOTYPES[:2]), (0, 1))

    def test_mixed_genotype_community_rejected(self):
        with pytest.raises(ValueError):
            NetworkTopology(2, ((0, 1),), tuple(EIGHT_GENOTYPES[:2]), (0, 0))

    def test_out_of_range_edge_rejected(self):
        with pytest.raises(ValueError):
            NetworkTopology(2, ((0, 2),), tuple(EIGHT_GENOTYPES[:2]), (0, 1))


class TestPartitionNetwork:
    def test_cliques_override(self):
        rng = np.random.default_rng(0)
        net = build_partition_network_with_probs(8, EIGHT_GENOTYPES, 1.0, 0.0, rng)
        assert net.node_count == 64
        assert len(net.edges) == 8 * (8 * 7 // 2)
        assert degree_stats(net) == (7.0, 7, 0)
        for u, v in net.edges:
            assert net.communities[u] == net.communities[v]

    def test_empty_graph_isolates_kept(self):
        rng = np.random.default_rng(0)
        net = build_partition_network_with_probs(2, EIGHT_GENOTYPES[:2], 0.0, 0.0, rng)
        assert degree_stats(net) == (0.0, 0, 4)

    def test_community_genotype_assignment(self):
        rng = np.random.default_rng(3)
        net = build_partition_network(PartitionSpec(8, 8, 9.0, 0.1), EIGHT_GENOTYPES, rng)
        for node in range(net.node_count):
            assert net.genotypes[node] == EIGHT_GENOTYPES[net.communities[node]]
        assert net.communities == tuple(i // 8 for i in range(64))

    def test_duplicate_genotypes_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            build_partition_network(
                PartitionSpec(8, 8, 9.0, 0.1), [EIGHT_GENOTYPES[0]] * 8, rng
            )

    def test_wrong_genotype_count_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            build_partition_network(PartitionSpec(8, 8, 9.0, 0.1), EIGHT_GENOTYPES[:4], rng)

    def test_determinism(self):
        spec = PartitionSpec(8, 8, 9.0, 0.1)
        a = build_partition_network(spec, EIGHT_GENOTYPES, np.random.default_rng(9))
        b = build_partition_network(spec, EIGHT_GENOTYPES, np.random.default_rng(9))
        assert a.edges == b.edges

    def test_mean_degree_over_seeds(self):
        # grand mean over 200 seeds within the frozen band and 3 standard errors
        spec = PartitionSpec(8, 8, 9.0, 0.1)
        means = [
            degree_stats(
                build_partition_network(spec, EIGHT_GENOTYPES, np.random.default_rng(seed))
            )[0]
            for seed in range(200)
        ]
        grand = float(np.mean(means))
        se = float(np.std(means, ddof=1) / np.sqrt(len(means)))
        assert abs(grand - 9.0) < 0.15
        assert abs(grand - 9.0) < 3 * se

    def test_eta_one_densities_statistically_equal(self):
        # pooled two-proportion z over within/between pair populations
        spec = PartitionSpec(8, 8, 9.0, 1.0)
        within_edges = between_edges = 0
        for seed in range(200):
            net = build_partition_network(spec, EIGHT_GENOTYPES, np.random.default_rng(seed))
            for u, v in net.edges:
                if net.communities[u] == net.communities[v]:
                    within_edges += 1
                else:
                    between_edges += 1
        n_within = 200 * 8 * (8 * 7 // 2)
        n_between = 200 * (64 * 63 // 2 - 8 * 28)
        p1, p2 = within_edges / n_within, between_edges / n_between
        pooled = (within_edges + between_edges) / (n_within + n_between)
        z = (p1 - p2) / np.sqrt(pooled * (1 - pooled) * (1 / n_within + 1 / n_between))
        assert abs(z) < 3.0

    def test_no_self_or_duplicate_edges_sampled(self):
        spec = PartitionSpec(4, 8, 5.0, 0.3)
        net = build_partition_network(spec, EIGHT_GENOTYPES, np.random.default_rng(17))
        assert all(u < v for u, v in net.edges)
        assert len(set(net.edges)) == len(net.edges)
