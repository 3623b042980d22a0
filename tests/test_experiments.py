import dataclasses
import itertools
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kincoop import experiments
from kincoop.experiments import (
    MAX_CHUNK_CELLS,
    ExperimentConfig,
    RunResult,
    SweepTask,
    _group_tasks,
    _pair_table,
    _run_discrimination_group,
    _run_dispersal_group,
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
from kincoop.learning import LearnerConfig, epsilon_at, q_update, resolve_decay
from kincoop.networks import (
    InfeasiblePartitionError,
    NetworkTopology,
    PartitionSpec,
    build_partition_network_with_probs,
    degree_stats,
)
from kincoop.pairsum import row_slots


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


def reference_learn(config, active, reward_fn, rng):
    """The learning kernel as it was before its selections became branchless:
    masked copies for the explore pick and the value updates, int8 actions,
    and a greedy snapshot, its comparison and the stable-step counter at
    every step. ``active`` is (points, *cells)."""
    learner = resolve_decay(config.learner, config.steps_max)
    points, shape = active.shape[0], active.shape[1:]
    q_c = np.full((points,) + shape, learner.q_init, dtype=float)
    q_d = q_c.copy()
    gap = q_c - q_d
    all_active = bool(active.all())
    inactive = np.broadcast_to(~active, (points,) + shape)

    defect = np.empty((points,) + shape, dtype=bool)
    acts = defect.view(np.int8)
    coop_count = np.zeros((points,) + shape, dtype=np.int64)
    prev_greedy = np.zeros((points,) + shape, dtype=np.int8)
    stable_steps = np.zeros(points, dtype=np.int64)
    learned = [None] * points

    def finish(p, freq, steps_run, converged_at):
        q = np.stack([q_c[p], q_d[p]], axis=-1)
        return experiments._Learned(freq, prev_greedy[p], converged_at, steps_run, q)

    for t in range(config.steps_max):
        eps = epsilon_at(learner, t)
        explore = rng.random(shape) < eps
        random_acts, tie_coins = rng.integers(0, 2, size=(2,) + shape)

        np.less(gap, 0, out=defect)
        np.copyto(defect, tie_coins, where=gap == 0, casting="unsafe")
        np.copyto(defect, random_acts, where=explore, casting="unsafe")
        reward = reward_fn(acts)

        q_new = q_update(np.where(defect, q_d, q_c), reward, learner.alpha)
        if all_active:
            np.copyto(q_d, q_new, where=defect)
            np.copyto(q_c, q_new, where=~defect)
        else:
            update_d = active & defect
            np.copyto(q_d, q_new, where=update_d)
            np.copyto(q_c, q_new, where=active ^ update_d)

        np.subtract(q_c, q_d, out=gap)
        snapshot = np.sign(gap).astype(np.int8)
        if not all_active:
            snapshot[inactive] = 0
        if t >= config.steps_max - config.window:
            coop_count += snapshot + 1
        same = (snapshot == prev_greedy).reshape(points, -1).all(axis=1)
        stable_steps = np.where(same, stable_steps + 1, 1)
        prev_greedy = snapshot
        if eps <= learner.epsilon_min:
            for p in np.flatnonzero(stable_steps >= config.window):
                if learned[p] is None:
                    learned[p] = finish(p, (snapshot[p] + 1.0) / 2.0, t + 1, t + 1)
            if None not in learned:
                break

    for p in range(points):
        if learned[p] is None:
            learned[p] = finish(p, coop_count[p] / (2 * config.window), config.steps_max, None)
    return learned


def first_floor_step(config):
    """The first step whose epsilon is at its floor, or None within the budget."""
    learner = resolve_decay(config.learner, config.steps_max)
    floor = (t for t in range(config.steps_max) if epsilon_at(learner, t) <= learner.epsilon_min)
    return next(floor, None)


def sparse_network():
    """64 nodes in 8 communities, 9 of them isolated."""
    genotypes = enumerate_genotypes(GenotypeSpace(3, 2))
    return build_partition_network_with_probs(8, genotypes, 0.15, 0.01, np.random.default_rng(7))


class TestKernelOracle:
    """``_learn`` against ``reference_learn``, bit for bit, wherever the
    watch step can fall: the snapshots before it are never taken, so only
    a stop rule read from the floor on and a final window after it keep the
    results exact."""

    FAST_DECAY = LearnerConfig(decay=0.9, epsilon_min=1e-6)  # at its floor from step 132
    # (learner, window) per floor position, with steps_max 300
    FLOORS = {
        "floor-at-start": (LearnerConfig(epsilon0=0.001), 50),
        "floor-at-window-minus-1": (FAST_DECAY, 133),
        "floor-mid-run": (FAST_DECAY, 40),
        "floor-never": (LearnerConfig(), 50),
    }
    # runner and config fields per state mask
    SETUPS = {
        "self-play": (_run_discrimination_group, small_discrimination, dict()),
        "no-self-play": (_run_discrimination_group, small_discrimination, dict(self_play=False)),
        "isolated-nodes": (_run_dispersal_group, small_dispersal, dict()),
        "isolated-nodes-edge-sampling": (_run_dispersal_group, small_dispersal, dict(edge_sampling=True)),
    }
    POINTS = {
        1: ((4.0, True),),
        3: ((2.0, True), (6.0, False), (12.0, True)),
    }

    def run_both(self, monkeypatch, floor, setup, points, seed=1):
        learner, window = self.FLOORS[floor]
        runner, make, fields = self.SETUPS[setup]
        group = tuple(
            make(
                dilemma=DilemmaParams(benefit=b, cost=1.0),
                inclusive=inclusive,
                learner=learner,
                steps_max=300,
                window=window,
                **fields,
            )
            for b, inclusive in self.POINTS[points]
        )
        extra = dict(network_override=sparse_network()) if runner is _run_dispersal_group else {}
        got = runner(group, seed, **extra)
        with monkeypatch.context() as patch:
            patch.setattr(experiments, "_learn", reference_learn)
            want = runner(group, seed, **extra)
        return group[0], got, want

    @pytest.mark.parametrize("points", sorted(POINTS))
    @pytest.mark.parametrize("setup", sorted(SETUPS))
    @pytest.mark.parametrize("floor", sorted(FLOORS))
    def test_matches_reference(self, monkeypatch, floor, setup, points):
        cfg, got, want = self.run_both(monkeypatch, floor, setup, points)
        at_floor = first_floor_step(cfg)
        assert {
            "floor-at-start": at_floor == 0,
            "floor-at-window-minus-1": at_floor == cfg.window - 1,
            "floor-mid-run": at_floor is not None and cfg.window <= at_floor < cfg.steps_max - 1,
            "floor-never": at_floor is None,
        }[floor]
        mask = got[0].state_mask
        inactive = got[0].isolated_count if mask is None else np.count_nonzero(~mask)
        assert (inactive > 0) == (setup != "self-play")
        for res, ref in zip(got, want):
            assert_same_result(res, ref)

    @pytest.mark.parametrize("setup", sorted(SETUPS))
    def test_stops_at_first_read(self, monkeypatch, setup):
        # A point whose policy held a window before the floor stops at the
        # floor's own step. A watch step even one step late would stop it
        # a step later.
        cfg, got, want = self.run_both(monkeypatch, "floor-mid-run", setup, 3)
        assert first_floor_step(cfg) + 1 in [res.converged_at for res in want]
        for res, ref in zip(got, want):
            assert_same_result(res, ref)


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

    @pytest.mark.parametrize("self_play", [True, False], ids=["self-play", "no-self-play"])
    @pytest.mark.parametrize("n", [1, 8])
    def test_degrees_are_the_complete_networks(self, n, self_play):
        # the runner builds no network; its degrees are those of the complete one
        genotypes = enumerate_genotypes(GenotypeSpace(3, 2))[:n]
        edges = np.stack(np.triu_indices(n, k=1), axis=1)
        complete = NetworkTopology(n, edges, tuple(genotypes), tuple(range(n)))
        cfg = small_discrimination(self_play=self_play, steps_max=60, window=20)
        res = run_discrimination(cfg, 1, genotypes=genotypes)
        degrees = (res.mean_degree, res.min_degree, res.isolated_count)
        assert degrees == degree_stats(complete) == {1: (0.0, 0, 1), 8: (7.0, 7, 0)}[n]
        assert [type(x) for x in degrees] == [float, int, int]

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

    @pytest.mark.parametrize("value", [0.3, -1 / 3, 4 / 3])
    def test_bins_reject_off_lattice_similarity(self, value):
        # off the lattice k/3, or a lattice step outside [0, 1]
        result = run_discrimination(small_discrimination(), 0)
        similarity = result.similarity.copy()
        similarity[tuple(np.argwhere(result.state_mask)[1])] = value
        result = dataclasses.replace(result, similarity=similarity)
        message = f"similarity {value!r} is not a lattice value k/3"
        with pytest.raises(ValueError, match=re.escape(message)):
            bin_by_similarity(result, 3)

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
    """Dispersal points that differ only in the dilemma, the reward mode and
    the partition's eta and k_avg share a random stream, so one pass learns
    them all, each on its own partition's network; each point's result must
    be bit-identical to a run of that point alone."""

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

    # k_avg 3 at seed 2: 2, 5 and 8 isolated nodes at etas 0.05, 0.1 and 0.5,
    # the last node among them at the two larger etas, on 102, 104 and 81 edges
    PARTITIONS = {
        "eta": [PartitionSpec(8, 8, 3.0, eta) for eta in (0.05, 0.1, 0.5)],
        "k-avg": [PartitionSpec(8, 8, k_avg, 0.1) for k_avg in (3.0, 9.0)],
    }

    @pytest.mark.parametrize("sampling", [False, True], ids=["dense", "edge-sampling"])
    @pytest.mark.parametrize("varied", sorted(PARTITIONS))
    def test_cross_partition_equals_single(self, varied, sampling):
        group = tuple(
            small_dispersal(
                steps_max=300, partition=partition, inclusive=inclusive, edge_sampling=sampling
            )
            for partition in self.PARTITIONS[varied]
            for inclusive in (True, False)
        )
        grouped = assert_group_equals_single(group, 2, run_dispersal)
        isolated = [res.isolated_count for res in grouped[::2]]
        assert isolated == ([2, 5, 8] if varied == "eta" else [5, 0])

    def test_members_must_differ_only_in_dilemma(self):
        # a partition's node layout is part of the group key; its eta and k_avg are not
        cfg = small_dispersal(steps_max=300)
        other = small_dispersal(steps_max=300, partition=PartitionSpec(9, 8, 9.0, 0.1))
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
    """The one kin-weighted pair-reward table against the relatedness-weighted
    game, bit for bit, at every similarity lattice value."""

    @pytest.mark.parametrize("loci", [1, 3, 8])
    @pytest.mark.parametrize("benefit,cost", [(2.0, 1.0), (4.0, 1.0), (3.7, 0.3), (12.0, 5.0)])
    def test_columns_are_the_transformed_game(self, loci, benefit, cost):
        dilemma = DilemmaParams(benefit, cost)
        lattice = np.arange(loci + 1) / loci
        table = _pair_table(
            [small_discrimination(dilemma=dilemma, inclusive=inc) for inc in (True, False)],
            np.repeat([0, 1], loci + 1),
            np.tile(lattice, 2),
        )
        assert table.shape == (4, 2 * (loci + 1))
        for k, h in enumerate(lattice):
            assert table[:, k].tobytes() == transformed_matrix(dilemma, h).tobytes()
            # a baseline point's rewards are its payoffs, bit for bit
            assert table[:, loci + 1 + k].tobytes() == payoff_matrix(dilemma).tobytes()

    def test_transformed_game_on_the_criterion_4_grid(self):
        # criterion 4 reads transformed_matrix on this grid; the closed form
        # (b - c)(1 + h), -c + h·b, b - h·c rounds differently at some points
        benefits = np.arange(1.5, 20.0 + 0.25, 0.5)
        lattice = np.arange(7) / 6
        table = _pair_table(
            [small_discrimination(dilemma=DilemmaParams(float(b), 1.0)) for b in benefits],
            np.repeat(np.arange(len(benefits)), len(lattice)),
            np.tile(lattice, len(benefits)),
        )
        for j, (b, h) in enumerate(itertools.product(benefits, lattice)):
            expected = transformed_matrix(DilemmaParams(float(b), 1.0), h)
            assert table[:, j].tobytes() == expected.tobytes()


class TestPairTableBuild:
    """``_pair_table`` builds each run of equal ``point`` through
    ``games.kin_weighted_payoffs``, with nothing table-sized beside the table."""

    def test_runs_and_the_trailing_pad_column(self):
        # dispersal's pad column, after the last point, belongs to point 0
        configs = [
            small_dispersal(dilemma=DilemmaParams(b, 1.0), inclusive=inclusive)
            for b, inclusive in [(2.0, True), (5.0, False), (9.0, True)]
        ]
        point = np.array([0, 0, 1, 1, 1, 2, 0])
        weights = np.array([0.25, -1.0, 0.5, 0.75, 1.0, -0.5, 0.0])
        table = _pair_table(configs, point, weights)
        assert table.shape == (4, len(point))
        for j, (p, w) in enumerate(zip(point, weights)):
            pm = payoff_matrix(configs[p].dilemma)
            expected = (w if configs[p].inclusive else 0.0) * pm.T + pm
            assert table[:, j].tobytes() == expected.tobytes(), j

    def test_peak_below_one_and_a_half_tables(self):
        # 36 points of 8000 edges and the pad column, as one dispersal group lays them
        configs = both_modes(small_dispersal, benefits=np.arange(2.0, 20.0))
        point = np.append(np.repeat(np.arange(len(configs)), 8000), 0)
        weights = np.append(np.random.default_rng(0).uniform(-1, 1, len(point) - 1), 0.0)
        tracemalloc.start()
        try:
            table = _pair_table(configs, point, weights)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(configs) == 36 and table.shape == (4, 36 * 8000 + 1)
        assert peak < 1.5 * table.nbytes


class TestGroupMembers:
    """A strict subset of a group learns bit-identically; configs that
    change the state mask, the node layout, the stream or the budget never
    share a group."""

    @pytest.mark.parametrize("kind", ["discrimination", "dispersal"])
    def test_chunk_equals_single(self, kind):
        group = both_modes(SMALL[kind], steps_max=300)
        run_single = run_discrimination if kind == "discrimination" else run_dispersal
        assert_group_equals_single((group[1], group[2], group[5]), 4, run_single)

    @pytest.mark.parametrize("kind", ["discrimination", "dispersal"])
    def test_one_config_group_equals_single(self, kind):
        cfg = SMALL[kind](steps_max=300)
        run_single = run_discrimination if kind == "discrimination" else run_dispersal
        want = run_single(cfg, 2)
        assert_same_result(run_experiment(cfg, 2, (cfg,)), want)
        assert_same_result(run_experiment(cfg, 2), want)
        assert experiments._handoff is None
        with pytest.raises(ValueError, match="not a member"):
            run_experiment(cfg, 2, (dataclasses.replace(cfg, inclusive=False),))

    @pytest.mark.parametrize(
        "kind,change",
        [
            ("dispersal", dict(partition=PartitionSpec(9, 8, 9.0, 0.1))),
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


class SerialPool:
    """``ProcessPoolExecutor`` run in this process: no worker starts."""

    def __init__(self, max_workers):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, chunks, chunksize=1):
        return map(fn, chunks)


# epsilon schedules over 40-80 steps: never at its 0.001 floor, at the floor
# from about step 20 (so points stop early, apart), and at it from step 0
SCHEDULES = [LearnerConfig(), LearnerConfig(decay=0.7), LearnerConfig(epsilon0=0.001)]


@st.composite
def groups(draw):
    """1-6 distinct points that share ``_group_key``, on 16 nodes for dispersal."""
    space = GenotypeSpace(draw(st.sampled_from([2, 3])), 2)
    steps_max = draw(st.integers(40, 80))
    shared = dict(
        kind=draw(st.sampled_from(["discrimination", "dispersal"])),
        space=space,
        learner=draw(st.sampled_from(SCHEDULES)),
        steps_max=steps_max,
        window=draw(st.integers(5, steps_max // 4)),
    )
    point = {
        "dilemma": st.builds(DilemmaParams, st.sampled_from([1.5, 2.0, 4.0, 9.0]), st.just(1.0)),
        "inclusive": st.booleans(),
    }
    if shared["kind"] == "discrimination":
        shared["self_play"] = draw(st.booleans())
    else:
        shared["edge_sampling"] = draw(st.booleans())
        # at k_avg 0.5 about 60 % of the nodes are isolated, often a network's last
        # ones, whose edge-sampling pick lands on the pad column
        point["partition"] = st.builds(
            PartitionSpec, st.just(16 // space.size), st.just(space.size),
            st.sampled_from([0.5, 1.0, 3.0]), st.sampled_from([0.2, 0.5, 1.0]),
        )
    points = draw(st.lists(st.fixed_dictionaries(point), min_size=1, max_size=6, unique_by=str))
    return tuple(ExperimentConfig(**shared, **fields) for fields in points)


class TestGroupInvariant:
    """Every point of a group, and of any subset of it in any order, learns
    bit for bit as it would alone, and a sweep's output does not depend on
    how its groups are cut into chunks for the workers."""

    @settings(max_examples=25, deadline=None)
    @given(groups(), st.data(), st.integers(0, 2**32 - 1))
    def test_group_subset_and_sweep_equal_lone_runs(self, group, data, seed):
        run_single = run_discrimination if group[0].kind == "discrimination" else run_dispersal
        lone = [run_single(cfg, seed) for cfg in group]
        order = data.draw(st.permutations(range(len(group))))
        subset = order[: data.draw(st.integers(1, len(group)))]
        for points in (range(len(group)), subset):
            results = experiments._run_points([group[k] for k in points], seed)
            assert len(results) == len(points)
            for k, got in zip(points, results):
                assert_same_result(got, lone[k])

        tasks = [SweepTask((k,), cfg, seed) for k, cfg in enumerate(group)]
        with mock.patch.object(experiments, "ProcessPoolExecutor", SerialPool):
            sweeps = [run_sweep(tasks, jobs) for jobs in (1, 2, 3, 4)]
        assert all(sweep == sweeps[0] for sweep in sweeps[1:])
        assert sweeps[0] == {
            key: {seed: payload} for key, seed, payload in map(experiments._payload, tasks, lone)
        }


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
    def dispersal(eta=0.1, boc=8.0, inclusive=True, nodes=(3, 8), **fields):
        loci, community_size = nodes
        return small_dispersal(
            space=GenotypeSpace(loci, 2),
            partition=PartitionSpec(community_size, 2**loci, 9.0, eta),
            dilemma=DilemmaParams(boc, 1.0),
            inclusive=inclusive,
            **fields,
        )

    def chunk(self, tasks, jobs):
        chunks = _group_tasks(tasks, jobs)
        # a partition of the tasks, each chunk one group's
        def order(task):
            return task.key, task.seed

        def group(task):
            # every field but the dilemma, the reward mode and the partition, then the node layout
            fields = vars(task.config)
            partition = fields["partition"]
            layout = partition and (partition.community_size, partition.community_count)
            varied = ("dilemma", "inclusive", "partition")
            shared = [value for name, value in fields.items() if name not in varied]
            return tuple(shared), layout, task.seed

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
        [(1, [36], [0.05]), (2, [18, 18], [0.05, 0.1])],
    )
    def test_disp(self, jobs, sizes, etas):
        # every eta at one seed is one group
        tasks = sweep_tasks(
            self.dispersal, eta=(0.05, 0.1, 0.5), boc=(2, 4, 6, 8, 10, 12), inclusive=(True, False)
        )
        chunks = self.chunk(tasks, jobs)
        assert [len(c) for c in chunks] == sizes
        assert [c[0].config.partition.eta for c in chunks] == etas
        assert [t.key for c in chunks for t in c] == [t.key for t in tasks]

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
        assert [len(c) for c in self.chunk(disp, 2)] == [36] * 10

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


    @pytest.mark.parametrize(
        "nodes,edge_sampling,sizes",
        [
            ((7, 32), False, [1] * 36),
            ((5, 32), False, [9] * 4),
            ((3, 8), False, [36]),
            ((7, 32), True, [36]),
        ],
        ids=["4096-nodes", "1024-nodes", "64-nodes", "4096-nodes-edge-sampling"],
    )
    def test_large_dispersal_points_capped(self, nodes, edge_sampling, sizes):
        # a dense point's row-sum buffers hold 8 slots per node and 128-node
        # leaf: 8 MB at 4096 nodes, so a chunk of 36 would need 36 times a lone
        # run's memory. Edge sampling keeps no row sums.
        tasks = sweep_tasks(
            lambda eta, boc, inclusive: self.dispersal(
                eta, boc, inclusive, nodes, edge_sampling=edge_sampling
            ),
            eta=(0.05, 0.1, 0.5), boc=(2, 4, 6, 8, 10, 12), inclusive=(True, False),
        )
        chunks = self.chunk(tasks, 1)
        assert [len(c) for c in chunks] == sizes
        n = 2 ** nodes[0] * nodes[1]
        cells = n if edge_sampling else n * row_slots(n)
        assert all(len(c) == 1 or len(c) * cells <= MAX_CHUNK_CELLS for c in chunks)


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
        # dispersal points that share a seed are learned together, across etas
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

    def test_pool_no_larger_than_chunk_count(self, monkeypatch):
        # the pool may start every worker up front, so it gets one per chunk at most
        started = []

        class RecordingPool(SerialPool):
            def __init__(self, max_workers):
                started.append(max_workers)

        monkeypatch.setattr(experiments, "ProcessPoolExecutor", RecordingPool)
        cfg = small_dispersal(steps_max=300, window=50)
        tasks = [SweepTask(("k",), cfg, seed) for seed in (1, 2, 3)]
        assert run_sweep(tasks, jobs=8) == run_sweep(tasks, jobs=1)
        assert started == [3]

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
