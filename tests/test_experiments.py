import dataclasses
import tracemalloc

import numpy as np
import pytest

from kincoop.experiments import (
    MAX_CHUNK_CELLS,
    ExperimentConfig,
    RunResult,
    SweepTask,
    _group_tasks,
    _pair_table,
    aggregate,
    bin_by_similarity,
    cooperator_proportion,
    run_discrimination,
    run_dispersal,
    run_experiment,
    run_sweep,
)
from kincoop.games import DilemmaParams, payoff_matrix, transformed_matrix
from kincoop.genotype import GenotypeSpace, enumerate_genotypes
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


def assert_same_result(got: RunResult, want: RunResult) -> None:
    """Every field equal, arrays bit for bit with their dtypes."""
    for field in dataclasses.fields(RunResult):
        a, b = getattr(got, field.name), getattr(want, field.name)
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype and np.array_equal(a, b), field.name
        else:
            assert a == b and type(a) is type(b), field.name


def both_modes(make, benefits=(2.0, 6.0, 12.0), **kwargs):
    """One group: every benefit in both reward modes, modes interleaved."""
    return tuple(
        make(dilemma=DilemmaParams(benefit=b, cost=1.0), inclusive=inclusive, **kwargs)
        for b in benefits
        for inclusive in (True, False)
    )


def assert_group_equals_single(group, seed, run_single):
    grouped = [run_experiment(cfg, seed, group) for cfg in group]
    for cfg, res in zip(group, grouped):
        assert_same_result(res, run_single(cfg, seed))
    return grouped


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
        res = run_discrimination(cfg, 0, genotypes=[(0,)])
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
        flipped = [tuple(1 - v for v in g) for g in plain]
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

    @pytest.mark.parametrize("zero_sims", [False, True])
    def test_bins_equal_running_sums(self, zero_sims):
        # a running float sum per lattice value over the masked cells in
        # row-major order, which the binning must reproduce bit for bit
        result = run_discrimination(small_discrimination(), 0)
        rng = np.random.default_rng(5)
        mask = result.state_mask & (rng.random(result.state_mask.shape) < 0.7)
        similarity = np.where(rng.random(mask.shape) < 0.3, 0.0, result.similarity)
        result = dataclasses.replace(
            result, state_mask=mask, similarity=similarity if zero_sims else result.similarity
        )
        sums, counts = {}, {}
        for i, j in zip(*np.nonzero(mask)):
            k = int(round(result.similarity[i, j] * 3))
            sums[k] = sums.get(k, 0.0) + float(result.coop_freq[i, j])
            counts[k] = counts.get(k, 0) + 1
        bins = bin_by_similarity(result, 3)
        assert bins == {k / 3: sums[k] / counts[k] for k in sums}
        assert all(type(v) is float for v in bins.values())

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
        assert np.array_equal(
            net.edges, [(u, v) for u in range(64) for v in range(u + 1, 64) if u // 8 == v // 8]
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


class TestDispersalGroups:
    """Dispersal points that differ only in the dilemma and the reward mode
    share a network and a random stream, so one pass learns them all; each
    point's result must be bit-identical to a run of that point alone."""

    GROUPS = {
        "dense-inclusive": dict(),
        "dense-baseline": dict(inclusive=False),
        "edge-sampling": dict(edge_sampling=True),
        # baseline points at eta 0.05 stop at steps 133 to 164
        "early-stop": dict(
            inclusive=False,
            partition=PartitionSpec(8, 8, 9.0, 0.05),
            learner=LearnerConfig(epsilon0=1.0, decay=0.9, epsilon_min=1e-6),
            window=100,
        ),
    }

    @pytest.mark.parametrize("case", sorted(GROUPS))
    def test_group_equals_single(self, case):
        group = tuple(
            small_dispersal(steps_max=300, dilemma=DilemmaParams(benefit=b, cost=1.0), **self.GROUPS[case])
            for b in (2.0, 6.0, 8.0, 12.0)
        )
        grouped = assert_group_equals_single(group, 1, run_dispersal)
        stops = {res.converged_at for res in grouped}
        if case == "early-stop":
            # the freeze path: points of one group stop at different steps
            assert None not in stops and len(stops) >= 2
        else:
            assert stops == {None}

    @pytest.mark.parametrize("sampling", [False, True], ids=["dense", "edge-sampling"])
    def test_mixed_modes_equal_single(self, sampling):
        group = both_modes(small_dispersal, steps_max=300, edge_sampling=sampling)
        grouped = assert_group_equals_single(group, 2, run_dispersal)
        # the modes differ, so the group did not just repeat one point
        assert not np.array_equal(grouped[4].q_values, grouped[5].q_values)

    def test_members_must_differ_only_in_dilemma(self):
        cfg = small_dispersal(steps_max=300)
        other = small_dispersal(steps_max=300, partition=PartitionSpec(8, 8, 9.0, 0.5))
        with pytest.raises(ValueError):
            run_experiment(cfg, 1, (cfg, other))
        with pytest.raises(ValueError):
            run_experiment(cfg, 1, (other, small_dispersal(steps_max=300, dilemma=DilemmaParams(4.0, 1.0))))

    def test_repeated_call_relearns(self):
        group = tuple(small_dispersal(steps_max=300, dilemma=DilemmaParams(b, 1.0)) for b in (4.0, 8.0))
        first = run_experiment(group[0], 2, group)
        again = run_experiment(group[0], 2, group)
        assert np.array_equal(first.q_values, again.q_values)
        assert np.array_equal(run_experiment(group[1], 2, group).q_values, run_dispersal(group[1], 2).q_values)


class TestDiscriminationGroups:
    """Discrimination points that differ only in the dilemma and the reward
    mode draw the same stream on the same complete network: one pass learns
    them all, each bit-identical to a run of that point alone."""

    @pytest.mark.parametrize("self_play", [True, False], ids=["self-play", "no-self-play"])
    def test_group_equals_single(self, self_play):
        group = both_modes(
            small_discrimination,
            benefits=(4.0, 2.5, 10.0 / 7.0),
            steps_max=300,
            self_play=self_play,
        )
        grouped = assert_group_equals_single(group, 1, run_discrimination)
        assert {res.converged_at for res in grouped} == {None}

    def test_early_stop_points_stop_apart(self):
        # epsilon reaches its floor near step 131; each point stops once its
        # greedy policy has then held for a whole window
        group = both_modes(
            small_discrimination,
            steps_max=400,
            learner=LearnerConfig(decay=0.9, epsilon_min=1e-6),
        )
        grouped = assert_group_equals_single(group, 3, run_discrimination)
        stops = [res.converged_at for res in grouped]
        assert None not in stops and len(set(stops)) >= 2
        assert [res.steps_run for res in grouped] == stops


class TestPairTable:
    """The one kin-weighted pair-reward table against the closed form of
    the relatedness-weighted game, at every similarity lattice value."""

    @pytest.mark.parametrize("loci", [1, 3, 8])
    @pytest.mark.parametrize("benefit,cost", [(2.0, 1.0), (4.0, 1.0), (3.7, 0.3), (12.0, 5.0)])
    def test_columns_are_the_transformed_game(self, loci, benefit, cost):
        dilemma = DilemmaParams(benefit, cost)
        lattice = np.arange(loci + 1) / loci
        table = _pair_table(
            [small_discrimination(dilemma=dilemma, inclusive=inc) for inc in (True, False)],
            lattice,
        )
        assert table.shape == (2, 4, loci + 1)
        for k, h in enumerate(lattice):
            assert np.allclose(table[0, :, k].reshape(2, 2), transformed_matrix(dilemma, h))
            # a baseline point's rewards are its payoffs, bit for bit
            assert table[1, :, k].tobytes() == payoff_matrix(dilemma).tobytes()


class TestGroupMembers:
    """A strict subset of a group learns bit-identically; configs that
    change the state mask, the stream or the budget never share a group."""

    @pytest.mark.parametrize("kind", ["discrimination", "dispersal"])
    def test_chunk_equals_single(self, kind):
        group = both_modes(SMALL[kind], steps_max=300)
        run_single = run_discrimination if kind == "discrimination" else run_dispersal
        assert_group_equals_single((group[1], group[2], group[5]), 4, run_single)

    @pytest.mark.parametrize(
        "kind,change",
        [
            ("dispersal", dict(partition=PartitionSpec(8, 8, 9.0, 0.5))),
            ("dispersal", dict(edge_sampling=True)),
            ("dispersal", dict(steps_max=301)),
            ("discrimination", dict(self_play=False)),
            ("discrimination", dict(steps_max=301)),
            ("discrimination", dict(kind="dispersal", partition=PartitionSpec(8, 8, 9.0, 0.1))),
        ],
        ids=["partition", "edge-sampling", "dispersal-steps-max", "self-play",
             "discrimination-steps-max", "kind"],
    )
    def test_other_fields_refused(self, kind, change):
        cfg = SMALL[kind](steps_max=300)
        other = dataclasses.replace(cfg, inclusive=False, **change)
        with pytest.raises(ValueError):
            run_experiment(cfg, 1, (cfg, other))


def sweep_tasks(make, seeds=(1,), **fields):
    """``SweepTask``s over the cross product of the ``fields`` values, then
    the seeds, in the CLI's order; a task's key holds its value indexes."""
    tasks = [((), {})]
    for name, values in fields.items():
        tasks = [
            (key + (i,), {**kw, name: value})
            for key, kw in tasks
            for i, value in enumerate(values)
        ]
    return [SweepTask(key, make(**kw), seed) for key, kw in tasks for seed in seeds]


class TestGroupTasks:
    """``_group_tasks`` on the benchmark's shapes: groups are halved until
    the workers are busy, and chunks come largest first."""

    DISC = dict(
        space=GenotypeSpace(6, 2),
        dilemma=[DilemmaParams(b, 1.0) for b in (4.0, 2.5, 10.0 / 7.0)],
    )

    @staticmethod
    def dispersal(eta=0.1, boc=8.0, inclusive=True, nodes=(3, 8)):
        loci, community_size = nodes
        return small_dispersal(
            space=GenotypeSpace(loci, 2),
            partition=PartitionSpec(community_size, 2**loci, 9.0, eta),
            dilemma=DilemmaParams(boc, 1.0),
            inclusive=inclusive,
        )

    def chunk(self, tasks, jobs):
        chunks = _group_tasks(tasks, jobs)
        # a partition of the tasks, each chunk one group's
        def order(task):
            return task.key, task.seed

        def group(task):
            return dataclasses.replace(task.config, dilemma=None, inclusive=False), task.seed

        assert sorted((t for c in chunks for t in c), key=order) == sorted(tasks, key=order)
        assert all(len({group(t) for t in c}) == 1 for c in chunks)
        return chunks

    @pytest.mark.parametrize("jobs,sizes", [(1, [3]), (2, [2, 1]), (4, [1, 1, 1])])
    def test_disc(self, jobs, sizes):
        tasks = sweep_tasks(
            lambda dilemma: small_discrimination(space=self.DISC["space"], dilemma=dilemma),
            dilemma=self.DISC["dilemma"],
        )
        chunks = self.chunk(tasks, jobs)
        assert [len(c) for c in chunks] == sizes
        # a group splits into its first and its second half, in task order
        assert [t.key for c in chunks for t in c] == [(0,), (1,), (2,)]

    @pytest.mark.parametrize(
        "jobs,sizes,etas",
        [(1, [12, 12, 12], [0.05, 0.1, 0.5]), (2, [12, 12, 6, 6], [0.1, 0.5, 0.05, 0.05])],
    )
    def test_disp(self, jobs, sizes, etas):
        tasks = sweep_tasks(
            self.dispersal, eta=(0.05, 0.1, 0.5), boc=(2, 4, 6, 8, 10, 12), inclusive=(True, False)
        )
        chunks = self.chunk(tasks, jobs)
        assert [len(c) for c in chunks] == sizes
        assert [c[0].config.partition.eta for c in chunks] == etas

    @pytest.mark.parametrize("jobs,sizes", [(1, [2]), (2, [1, 1])])
    def test_disp_wide(self, jobs, sizes):
        tasks = sweep_tasks(lambda inclusive: self.dispersal(inclusive=inclusive, nodes=(5, 32)),
                            inclusive=(True, False))
        assert [len(c) for c in self.chunk(tasks, jobs)] == sizes

    @pytest.mark.parametrize(
        "jobs,sizes",
        [(1, [3] * 5), (2, [3, 3, 3, 3, 2, 1]), (5, [3] * 5)],
    )
    def test_multi_seed(self, jobs, sizes):
        # the shipped discrimination sweep: 3 benefits at 5 seeds
        tasks = sweep_tasks(lambda dilemma: small_discrimination(dilemma=dilemma),
                            seeds=(1, 2, 3, 4, 5), dilemma=self.DISC["dilemma"])
        chunks = self.chunk(tasks, jobs)
        assert [len(c) for c in chunks] == sizes
        assert [c[0].seed for c in chunks][:4] == ([2, 3, 4, 5] if jobs == 2 else [1, 2, 3, 4])

    def test_acceptance_shapes(self):
        disc = sweep_tasks(
            lambda dilemma, inclusive: small_discrimination(dilemma=dilemma, inclusive=inclusive),
            seeds=(1, 2, 3, 4, 5),
            dilemma=self.DISC["dilemma"],
            inclusive=(True, False),
        )
        assert [len(c) for c in self.chunk(disc, 2)] == [6, 6, 6, 6, 3, 3]
        disp = sweep_tasks(self.dispersal, seeds=tuple(range(1, 11)), eta=(0.05, 0.1, 0.5),
                           boc=(2, 4, 6, 8, 10, 12), inclusive=(True, False))
        assert [len(c) for c in self.chunk(disp, 2)] == [12] * 30

    @pytest.mark.parametrize("loci,sizes", [(10, [1] * 6), (9, [3, 3]), (8, [6])])
    def test_large_points_capped(self, loci, sizes):
        # a chunk of six 1024-agent points would need six times a lone run's memory
        tasks = sweep_tasks(
            lambda dilemma, inclusive: small_discrimination(
                space=GenotypeSpace(loci, 2), dilemma=dilemma, inclusive=inclusive
            ),
            dilemma=self.DISC["dilemma"], inclusive=(True, False),
        )
        chunks = self.chunk(tasks, 1)
        assert [len(c) for c in chunks] == sizes
        assert all(len(c) == 1 or len(c) * 4**loci <= MAX_CHUNK_CELLS for c in chunks)


class TestDispersalMemory:
    """A dispersal group holds no N x N array: the network is drawn in row
    chunks, similarity is looked up per community pair and the reward is
    summed over the edges."""

    @pytest.mark.parametrize("mode", [dict(), dict(inclusive=False), dict(edge_sampling=True)])
    def test_peak_below_one_dense_array(self, mode):
        space = GenotypeSpace(5, 2)
        group = tuple(
            small_dispersal(
                space=space,
                partition=PartitionSpec(32, 32, 9.0, 0.1),
                dilemma=DilemmaParams(benefit=b, cost=1.0),
                steps_max=20,
                window=10,
                **mode,
            )
            for b in (2.0, 8.0)
        )
        tracemalloc.start()
        try:
            results = [run_experiment(cfg, 1, group) for cfg in group]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert results[0].coop_freq.shape == (1024,)
        assert peak < 1024 * 1024 * 8  # bytes of one 1024 x 1024 float64 array


class TestDiscriminationMemory:
    """The learning kernel keeps no history of greedy snapshots: its state is
    two value tables, one window count and the work arrays of one step,
    whatever the window's length."""

    def test_peak_independent_of_window(self):
        cfg = small_discrimination(space=GenotypeSpace(7, 2), steps_max=120, window=100)
        tracemalloc.start()
        try:
            result = run_discrimination(cfg, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.coop_freq.shape == (128, 128)
        assert peak < 50 * 128 * 128 * 8  # bytes of 50 float64 128 x 128 tables

    def test_group_peak_below_per_cell_weights(self):
        # 6 points x 256 x 256 cells. Rewards that multiply a (P, N, N) float
        # weight array every step peaked at 36.8 MiB; a (P, 4, N, N) reward
        # table per cell would add 12 MiB to that.
        group = both_modes(small_discrimination, space=GenotypeSpace(8, 2), steps_max=20, window=10)
        tracemalloc.start()
        try:
            results = [run_experiment(cfg, 1, group) for cfg in group]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert results[0].coop_freq.shape == (256, 256)
        assert peak < 35 * 2**20


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
        # dispersal points that share (eta, mode, seed) are learned together
        tasks += [
            SweepTask(
                (eta, boc, inclusive),
                small_dispersal(
                    steps_max=300,
                    window=50,
                    partition=PartitionSpec(8, 8, 9.0, eta),
                    dilemma=DilemmaParams(benefit=boc, cost=1.0),
                    inclusive=inclusive,
                ),
                seed,
            )
            for eta in (0.1, 0.5)
            for boc in (4.0, 8.0)
            for inclusive in (True, False)
            for seed in (1, 2)
        ]
        serial = run_sweep(tasks, jobs=1)
        parallel = run_sweep(tasks, jobs=2)
        assert serial == parallel
        assert len(serial) == 9 and sum(len(per_seed) for per_seed in serial.values()) == 19

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
