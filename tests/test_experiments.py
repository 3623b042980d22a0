import numpy as np
import pytest

from kincoop.experiments import (
    ExperimentConfig,
    SweepTask,
    aggregate,
    bin_by_similarity,
    cooperator_proportion,
    run_discrimination,
    run_dispersal,
    run_experiment,
    run_sweep,
)
from kincoop.games import DilemmaParams
from kincoop.genotype import Genotype, GenotypeSpace, enumerate_genotypes
from kincoop.learning import LearnerConfig
from kincoop.networks import InfeasiblePartitionError, PartitionSpec


def small_discrimination(**kwargs):
    base = dict(
        kind="discrimination",
        space=GenotypeSpace(3, 2),
        dilemma=DilemmaParams(benefit=4.0, cost=1.0),
        learner=LearnerConfig(),
        steps_max=900,
        window=100,
    )
    base.update(kwargs)
    return ExperimentConfig(**base)


def small_dispersal(**kwargs):
    base = dict(
        kind="dispersal",
        space=GenotypeSpace(3, 2),
        dilemma=DilemmaParams(benefit=8.0, cost=1.0),
        learner=LearnerConfig(),
        steps_max=1200,
        window=150,
        partition=PartitionSpec(8, 8, 9.0, 0.1),
    )
    base.update(kwargs)
    return ExperimentConfig(**base)


SMALL = {"discrimination": small_discrimination, "dispersal": small_dispersal}


class TestConfigValidation:
    def test_bad_kind(self):
        with pytest.raises(ValueError):
            small_discrimination(kind="other")

    def test_window_ordering(self):
        with pytest.raises(ValueError):
            small_discrimination(steps_max=100, window=100)

    def test_dispersal_needs_partition(self):
        with pytest.raises(ValueError):
            small_dispersal(partition=None)

    def test_one_community_per_genotype(self):
        with pytest.raises(ValueError):
            small_dispersal(partition=PartitionSpec(8, 4, 5.0, 0.1))

    def test_infeasible_partition_raised_before_run(self):
        cfg = small_dispersal(partition=PartitionSpec(8, 8, 9.0, 0.01))
        with pytest.raises(InfeasiblePartitionError):
            run_dispersal(cfg, 0)


class TestConvergence:
    """The learning kernel's stop rule, shared by both runners: the greedy
    policy unchanged for a full window with epsilon at its floor."""

    @pytest.mark.parametrize("kind", sorted(SMALL))
    def test_early_stop_when_floor_reachable(self, kind):
        # near-zero floor: once exploration dies the policy freezes and the
        # run stops a window after the floor is reached
        cfg = SMALL[kind](
            learner=LearnerConfig(epsilon0=1.0, decay=0.9, epsilon_min=1e-6),
            steps_max=900,
            window=100,
        )
        res = run_experiment(cfg, 1)
        assert res.converged_at is not None
        assert res.converged_at == res.steps_run < 900

    @pytest.mark.parametrize("kind", sorted(SMALL))
    def test_no_stop_above_floor(self, kind):
        # the default schedule reaches its floor only after the step budget
        cfg = SMALL[kind](steps_max=400, window=50)
        res = run_experiment(cfg, 1)
        assert res.converged_at is None
        assert res.steps_run == 400


class TestDiscriminationRunner:
    def test_determinism(self):
        cfg = small_discrimination()
        a, b = run_discrimination(cfg, 13), run_discrimination(cfg, 13)
        assert np.array_equal(a.coop_freq, b.coop_freq)
        assert np.array_equal(a.q_values, b.q_values)
        assert np.array_equal(a.greedy_final, b.greedy_final)
        assert a.converged_at == b.converged_at and a.steps_run == b.steps_run

    def test_baseline_equivalence_under_zero_similarity(self):
        cfg_inc = small_discrimination()
        cfg_base = small_discrimination(inclusive=False)
        override = np.eye(8)
        for seed in (1, 2):
            a = run_discrimination(cfg_inc, seed, similarity_override=override)
            b = run_discrimination(cfg_base, seed, similarity_override=override)
            assert np.array_equal(a.coop_freq, b.coop_freq)
            assert np.array_equal(a.greedy_final, b.greedy_final)
            assert a.converged_at == b.converged_at
            assert a.steps_run == b.steps_run

    def test_single_agent_self_play_cooperates(self):
        cfg = ExperimentConfig(
            kind="discrimination",
            space=GenotypeSpace(1, 2),
            dilemma=DilemmaParams(benefit=3.0, cost=1.0),
            learner=LearnerConfig(),
            steps_max=600,
            window=60,
        )
        res = run_discrimination(cfg, 0, genotypes=[Genotype((0,))])
        assert res.greedy_final[0, 0] == 1
        assert res.coop_freq[0, 0] > 0.99

    def test_self_play_off_masks_diagonal(self):
        res = run_discrimination(small_discrimination(self_play=False), 3)
        assert not res.state_mask.diagonal().any()
        assert res.state_mask.sum() == 8 * 7

    def test_metadata_complete_network(self):
        res = run_discrimination(small_discrimination(), 5)
        assert res.mean_degree == 7.0
        assert res.isolated_count == 0

    def test_converged_at_bounded_or_flagged(self):
        cfg = small_discrimination()
        res = run_discrimination(cfg, 2)
        assert res.converged_at is None or res.converged_at <= cfg.steps_max
        assert res.steps_run <= cfg.steps_max

    def test_threshold_pattern_small_space(self):
        # c/b = 0.25: lattice {0} defects, {1/3, 2/3, 1} cooperate
        tables = [
            bin_by_similarity(run_discrimination(small_discrimination(), seed), 3)
            for seed in range(3)
        ]
        means = {k: np.mean([t[k] for t in tables]) for k in tables[0]}
        assert means[0.0] < 0.1
        assert all(means[k] > 0.9 for k in (1 / 3, 2 / 3, 1.0))

    def test_gene_relabeling_invariance(self):
        # complementing every gene is a relabeling; binned curves must agree
        space = GenotypeSpace(3, 2)
        plain = enumerate_genotypes(space)
        flipped = [Genotype(tuple(1 - v for v in g.genes)) for g in plain]
        cfg = small_discrimination()
        seeds = range(4)
        t_plain = [
            bin_by_similarity(run_discrimination(cfg, s, genotypes=plain), 3) for s in seeds
        ]
        t_flip = [
            bin_by_similarity(run_discrimination(cfg, s, genotypes=flipped), 3) for s in seeds
        ]
        for key, mean, se, _ in aggregate(t_plain):
            other = dict((k, m) for k, m, *_ in aggregate(t_flip))[key]
            assert abs(mean - other) <= 0.05

    def test_monotone_in_similarity(self):
        tables = [
            bin_by_similarity(run_discrimination(small_discrimination(), seed), 3)
            for seed in range(3)
        ]
        curve = [np.mean([t[k] for t in tables]) for k in sorted(tables[0])]
        assert all(b >= a - 0.05 for a, b in zip(curve, curve[1:]))


class TestDispersalRunner:
    def test_determinism(self):
        cfg = small_dispersal()
        a, b = run_dispersal(cfg, 21), run_dispersal(cfg, 21)
        assert np.array_equal(a.coop_freq, b.coop_freq)
        assert np.array_equal(a.q_values, b.q_values)

    def test_baseline_equivalence_under_zero_similarity(self):
        override = np.eye(64)
        a = run_dispersal(small_dispersal(), 4, similarity_override=override)
        b = run_dispersal(small_dispersal(inclusive=False), 4, similarity_override=override)
        assert np.array_equal(a.coop_freq, b.coop_freq)
        assert np.array_equal(a.q_values, b.q_values)
        assert a.converged_at == b.converged_at

    def test_cliques_cooperate(self):
        # within-clique play against clones only: cooperation should win
        from kincoop.networks import build_partition_network_with_probs

        genotypes = enumerate_genotypes(GenotypeSpace(3, 2))
        net = build_partition_network_with_probs(
            8, genotypes, 1.0, 0.0, np.random.default_rng(0)
        )
        assert net.edges == tuple(
            (u, v) for u in range(64) for v in range(u + 1, 64) if u // 8 == v // 8
        )
        res = run_dispersal(small_dispersal(), 0, network_override=net)
        assert cooperator_proportion(res.greedy_final) > 0.9

    def test_seed_changes_network(self):
        a = run_dispersal(small_dispersal(), 1)
        b = run_dispersal(small_dispersal(), 2)
        assert a.mean_degree != b.mean_degree or not np.array_equal(a.coop_freq, b.coop_freq)

    def test_edge_sampling_mode_runs(self):
        res = run_dispersal(small_dispersal(edge_sampling=True), 3)
        assert res.coop_freq.shape == (64,)
        assert 0.0 <= cooperator_proportion(res.greedy_final) <= 1.0

    def test_proportion_tie_counts_half(self):
        assert cooperator_proportion(np.array([1, -1, 0, 0], dtype=np.int8)) == 0.5


class TestAggregate:
    def test_single_result(self):
        rows = aggregate([{0.5: 0.8}])
        assert rows == [(0.5, 0.8, 0.0, 1)]

    def test_identical_results_zero_se(self):
        rows = aggregate([{0.0: 0.4}, {0.0: 0.4}])
        assert rows[0].std_error == 0.0

    def test_two_value_mean(self):
        rows = aggregate([{1.0: 0.0}, {1.0: 1.0}])
        assert rows[0].mean == 0.5
        assert rows[0].n_seeds == 2

    def test_mixed_shapes_rejected(self):
        with pytest.raises(ValueError):
            aggregate([{0.0: 1.0}, {0.5: 1.0}])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate([])

    def test_sorted_keys(self):
        rows = aggregate([{0.5: 1.0, 0.0: 0.0, 1.0: 0.5}])
        assert [r.key for r in rows] == [0.0, 0.5, 1.0]


class TestSweep:
    def test_serial_parallel_identical(self):
        cfg = small_discrimination(steps_max=400, window=50)
        tasks = [SweepTask((4.0,), cfg, seed) for seed in (1, 2, 3)]
        serial = run_sweep(tasks, jobs=1)
        parallel = run_sweep(tasks, jobs=2)
        assert serial == parallel

    def test_dispatch_by_kind(self):
        res = run_experiment(small_dispersal(steps_max=300, window=50), 1)
        assert res.kind == "dispersal"

    def test_payload_contents(self):
        cfg = small_dispersal(steps_max=300, window=50)
        out = run_sweep([SweepTask(("k",), cfg, 5)], jobs=1)
        payload = out[("k",)][5]
        assert "proportion" in payload
        assert payload["meta"]["seed"] == 5
        assert "isolated_count" in payload["meta"]
