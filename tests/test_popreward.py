import io
from collections import Counter

import numpy as np
import pytest

from kincoop import popreward
from kincoop.genotype import GenotypeSpace, MutationSpec, hamming_similarity
from kincoop.learning import LearnerConfig
from kincoop.popreward import (
    AlwaysReproducePolicy,
    IdlePolicy,
    PopulationState,
    QReproductionPolicy,
    RandomPolicy,
    RewardTriple,
    SandboxAgent,
    SandboxConfig,
    ThresholdPolicy,
    combined_reward,
    longevity_reward,
    replication_identity_error,
    replication_reward,
    run_sandbox,
    write_rewards_csv,
    write_trace_csv,
)


def g(*genes):
    return tuple(genes)


ME = g(1, 1, 1, 1)
NEAR = g(1, 1, 1, 0)  # similarity 0.75 to ME
FAR = g(0, 0, 0, 0)  # similarity 0.0 to ME

SPACE = GenotypeSpace(4, 2)


def state(*pairs):
    return PopulationState(tuple(pairs))


class TestLongevityReward:
    def test_two_unique_genotypes(self):
        s = state((0, ME), (1, NEAR))
        assert longevity_reward(ME, s) == pytest.approx(1.75)

    def test_only_me(self):
        assert longevity_reward(ME, state((0, ME))) == 1.0

    def test_unrelated_population(self):
        assert longevity_reward(ME, state((0, FAR), (1, FAR))) == 0.0

    def test_copies_count_once(self):
        s = state((0, ME), (1, ME), (2, ME), (3, NEAR))
        assert longevity_reward(ME, s) == pytest.approx(1.75)


class TestCombinedReward:
    def test_copies_counted(self):
        s = state((0, ME), (1, ME), (2, NEAR))
        assert combined_reward(ME, s) == pytest.approx(2.75)

    def test_empty_population(self):
        assert combined_reward(ME, state()) == 0.0

    def test_single_copy(self):
        assert combined_reward(ME, state((0, ME))) == 1.0

    def test_at_least_one_while_alive(self):
        s = state((0, ME), (1, FAR))
        assert combined_reward(ME, s) >= 1.0


class TestReplicationReward:
    def test_newborn_clone(self):
        prev = state((0, ME))
        curr = state((0, ME), (1, ME))
        assert replication_reward(ME, prev, curr) == pytest.approx(1.0)

    def test_no_change(self):
        s = state((0, ME), (1, NEAR))
        assert replication_reward(ME, s, s) == 0.0

    def test_unrelated_death(self):
        prev = state((0, ME), (1, FAR))
        curr = state((0, ME))
        assert replication_reward(ME, prev, curr) == 0.0

    def test_related_death_negative(self):
        prev = state((0, ME), (1, NEAR))
        curr = state((0, ME))
        assert replication_reward(ME, prev, curr) == pytest.approx(-0.75)

    def test_equals_combined_difference(self):
        prev = state((0, ME), (1, NEAR), (2, FAR))
        curr = state((0, ME), (2, FAR), (5, ME), (6, NEAR))
        expected = combined_reward(ME, curr) - combined_reward(ME, prev)
        assert replication_reward(ME, prev, curr) == pytest.approx(expected, abs=1e-12)


class TestStateInvariants:
    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError):
            state((0, ME), (0, NEAR))

    def test_unique_genotypes_derived(self):
        s = state((0, ME), (1, ME), (2, FAR))
        assert s.unique_genotypes == frozenset({ME, FAR})


class TestSandbox:
    def test_idle_no_food_extinction(self):
        cfg = SandboxConfig(
            space=SPACE,
            initial_genotype=FAR,
            mutation=MutationSpec(0.0),
            initial_health=5.0,
            food_rate=0,
            steps=50,
            policy=IdlePolicy(),
        )
        trace = run_sandbox(cfg, np.random.default_rng(0))
        assert trace.extinct_at == 5
        assert trace.steps == 5
        assert len(trace.states[-1]) == 0
        healths = [trace.healths[t][0] for t in range(5)]
        assert healths == [5.0, 4.0, 3.0, 2.0, 1.0]

    def test_reproduce_always_single_genotype(self):
        cfg = SandboxConfig(
            space=SPACE,
            initial_genotype=ME,
            mutation=MutationSpec(0.0),
            initial_health=12.0,
            food_rate=6,
            steps=60,
            policy=AlwaysReproducePolicy(),
        )
        trace = run_sandbox(cfg, np.random.default_rng(1))
        assert trace.extinct_at is None
        for t in range(1, len(trace.states)):
            s = trace.states[t]
            if len(s) == 0:
                continue
            assert s.unique_genotypes == frozenset({ME})
            for aid, _ in s.alive:
                assert trace.rewards[t - 1][aid].longevity == pytest.approx(1.0)
                assert trace.rewards[t - 1][aid].combined == pytest.approx(len(s))

    def test_quarter_health_transfer(self):
        cfg = SandboxConfig(
            space=SPACE,
            initial_genotype=ME,
            mutation=MutationSpec(0.0),
            initial_health=8.0,
            food_rate=0,
            steps=1,
            policy=AlwaysReproducePolicy(),
        )
        trace = run_sandbox(cfg, np.random.default_rng(0))
        # parent decayed to 7, gave a quarter (1.75) to the child
        by_id = dict(zip([a for a, _ in trace.states[1].alive], trace.healths[1]))
        assert by_id[0] == pytest.approx(5.25)
        assert by_id[1] == pytest.approx(1.75)

    def test_zero_steps_trace(self):
        cfg = SandboxConfig(
            space=SPACE,
            initial_genotype=ME,
            mutation=MutationSpec(0.1),
            initial_health=5.0,
            food_rate=1,
            steps=0,
            policy=IdlePolicy(),
        )
        trace = run_sandbox(cfg, np.random.default_rng(0))
        assert trace.steps == 0
        assert trace.rewards == []

    @pytest.mark.parametrize("genotype", [[1, 1, 1, 1], (1, 1, 1.0, 1)])
    def test_initial_genotype_must_be_a_tuple_of_ints(self, genotype):
        with pytest.raises(ValueError, match="initial_genotype must belong to the genotype space"):
            SandboxConfig(
                space=SPACE,
                initial_genotype=genotype,
                mutation=MutationSpec(0.1),
                initial_health=5.0,
                food_rate=1,
                steps=10,
                policy=IdlePolicy(),
            )

    def test_health_capped_at_initial(self):
        cfg = SandboxConfig(
            space=SPACE,
            initial_genotype=ME,
            mutation=MutationSpec(0.0),
            initial_health=3.0,
            food_rate=10,
            steps=20,
            policy=IdlePolicy(),
        )
        trace = run_sandbox(cfg, np.random.default_rng(0))
        assert all(h <= 3.0 for hs in trace.healths for h in hs)
        assert trace.extinct_at is None

    def test_energy_conservation(self):
        cfg = SandboxConfig(
            space=SPACE,
            initial_genotype=ME,
            mutation=MutationSpec(0.1),
            initial_health=10.0,
            food_rate=5,
            steps=300,
            policy=RandomPolicy(0.3),
        )
        trace = run_sandbox(cfg, np.random.default_rng(11))
        for t in range(1, len(trace.states)):
            before = sum(trace.healths[t - 1])
            after = sum(trace.healths[t])
            # dead agents carry their (non-positive) final health out of the total
            residuals = sum(h for _, _, h in trace.deaths[t - 1])
            expected = before - trace.pop_before[t - 1] + trace.food_consumed[t - 1] - residuals
            assert after == pytest.approx(expected, abs=1e-9)

    @staticmethod
    def q_config(reward_kind):
        learner = LearnerConfig(alpha=0.2, epsilon0=1.0, decay=0.99, epsilon_min=0.02)
        return SandboxConfig(
            space=SPACE,
            initial_genotype=ME,
            mutation=MutationSpec(0.05),
            initial_health=10.0,
            food_rate=6,
            steps=200,
            policy=QReproductionPolicy(learner, reward_kind=reward_kind),
        )

    def test_q_policy_learns_online(self):
        # the draws do not depend on the reward, so the traces part only if
        # feedback reached the learner and changed its choices
        combined = run_sandbox(self.q_config("combined"), np.random.default_rng(2))
        longevity = run_sandbox(self.q_config("longevity"), np.random.default_rng(2))
        assert combined.steps > 0
        assert combined.states != longevity.states

    def test_rerun_with_same_config_identical(self):
        # each run learns on its own copy of the policy, so nothing carries over
        cfg = self.q_config("combined")
        first = run_sandbox(cfg, np.random.default_rng(2))
        second = run_sandbox(cfg, np.random.default_rng(2))
        assert first.states == second.states
        assert first.rewards == second.rewards
        assert not cfg.policy.tables

    def test_threshold_policy(self):
        policy = ThresholdPolicy(min_health=100.0)
        cfg = SandboxConfig(
            space=SPACE,
            initial_genotype=ME,
            mutation=MutationSpec(0.0),
            initial_health=6.0,
            food_rate=2,
            steps=30,
            policy=policy,
        )
        trace = run_sandbox(cfg, np.random.default_rng(0))
        assert all(len(b) == 0 for b in trace.births)


class TestQPolicyDecide:
    """The epsilon-greedy choice over the two per-agent values."""

    AGENT = SandboxAgent(0, ME, 10.0)

    @classmethod
    def policy(cls, epsilon, prefer=None, alpha=1.0):
        """A policy whose agent 0 has acted once; ``prefer`` (True reproduce,
        False idle) gets value 1 against 0, else both values stay 0."""
        learner = LearnerConfig(alpha=alpha, epsilon0=epsilon, decay=1.0, epsilon_min=0.0)
        policy = QReproductionPolicy(learner, "combined")
        policy.decide(cls.AGENT, np.random.default_rng(0))
        if prefer is not None:
            policy.feedback(0, prefer, RewardTriple(1.0, 1.0, 1.0))
        return policy

    @pytest.mark.parametrize("prefer", [True, False])
    def test_pure_greedy(self, prefer):
        policy = self.policy(0.0, prefer)
        rng = np.random.default_rng(0)
        assert all(policy.decide(self.AGENT, rng) is prefer for _ in range(100))

    def test_full_exploration_is_uniform(self):
        policy = self.policy(1.0, prefer=True)
        rng = np.random.default_rng(42)
        draws = [policy.decide(self.AGENT, rng) for _ in range(10_000)]
        assert sum(draws) / len(draws) == pytest.approx(0.5, abs=0.02)

    def test_tie_break_is_fair(self):
        policy = self.policy(0.0)
        rng = np.random.default_rng(7)
        draws = [policy.decide(self.AGENT, rng) for _ in range(10_000)]
        assert sum(draws) / len(draws) == pytest.approx(0.5, abs=0.02)

    def test_bit_reproducible(self):
        runs = []
        for _ in range(2):
            policy = self.policy(0.3, prefer=True, alpha=0.5)
            rng = np.random.default_rng(123)
            runs.append([policy.decide(self.AGENT, rng) for _ in range(500)])
        assert runs[0] == runs[1]

    @pytest.mark.parametrize(
        "epsilon,prefer,calls",
        [
            (0.0, True, ["random"]),
            (0.0, None, ["random", "integers"]),
            (1.0, True, ["random", "integers"]),
        ],
        ids=["greedy", "tie", "explore"],
    )
    def test_draw_order(self, epsilon, prefer, calls):
        # one uniform against epsilon, then one coin on exploring or on a tie
        class Recorder:
            def __init__(self):
                self.calls = []
                self.rng = np.random.default_rng(0)

            def random(self):
                self.calls.append("random")
                return self.rng.random()

            def integers(self, high):
                self.calls.append("integers")
                return self.rng.integers(high)

        rng = Recorder()
        self.policy(epsilon, prefer).decide(self.AGENT, rng)
        assert rng.calls == calls

    def test_values_follow_the_update_rule(self):
        policy = self.policy(0.0, alpha=0.5)
        policy.feedback(0, True, RewardTriple(0.0, 0.0, 3.0))
        policy.feedback(0, False, RewardTriple(0.0, 0.0, -1.0))
        assert policy.tables[0] == [1.5, -0.5, 1]


class TestRewardIdentities:
    def make_trace(self, seed, mu, steps=400):
        cfg = SandboxConfig(
            space=SPACE,
            initial_genotype=ME,
            mutation=MutationSpec(mu),
            initial_health=10.0,
            food_rate=6,
            steps=steps,
            policy=RandomPolicy(0.25 + 0.1 * (seed % 3)),
        )
        return run_sandbox(cfg, np.random.default_rng(seed))

    @pytest.mark.parametrize("mu", [0.0, 0.05, 0.2])
    def test_replication_equals_combined_delta(self, mu):
        for seed in range(4):
            trace = self.make_trace(seed, mu)
            assert replication_identity_error(trace) < 1e-9

    def test_longevity_dominated_by_combined(self):
        trace = self.make_trace(5, 0.2)
        for step_rewards in trace.rewards:
            for triple in step_rewards.values():
                assert triple.longevity <= triple.combined + 1e-12
                # a living agent always contributes its own self-similarity
                assert triple.combined >= 1.0 - 1e-12

    def test_longevity_equals_combined_iff_all_unique(self):
        trace = self.make_trace(6, 0.2)
        for t, step_rewards in enumerate(trace.rewards, start=1):
            s = trace.states[t]
            genotype_counts = {}
            for _, geno in s.alive:
                genotype_counts[geno] = genotype_counts.get(geno, 0) + 1
            all_unique = all(c == 1 for c in genotype_counts.values())
            for aid, geno in s.alive:
                triple = step_rewards[aid]
                if all_unique:
                    assert triple.longevity == pytest.approx(triple.combined, abs=1e-12)

    def test_telescoping_sum(self):
        trace = self.make_trace(7, 0.05)
        me = ME
        total = sum(
            replication_reward(me, trace.states[t - 1], trace.states[t])
            for t in range(1, len(trace.states))
        )
        expected = combined_reward(me, trace.states[-1]) - combined_reward(me, trace.states[0])
        assert total == pytest.approx(expected, abs=1e-9)

    def test_evaluate_rewards_matches_ops(self):
        trace = self.make_trace(8, 0.2, steps=60)
        rewards = trace.rewards
        for t in range(1, len(trace.states)):
            for aid, geno in trace.states[t].alive:
                triple = rewards[t - 1][aid]
                assert triple.longevity == pytest.approx(
                    longevity_reward(geno, trace.states[t]), abs=1e-12
                )
                assert triple.combined == pytest.approx(
                    combined_reward(geno, trace.states[t]), abs=1e-12
                )
                assert triple.replication == pytest.approx(
                    replication_reward(geno, trace.states[t - 1], trace.states[t]), abs=1e-12
                )


def oracle_event_rewards(curr, born, died, _matches=None):
    """Per-agent rewards summed left to right over ``hamming_similarity`` in
    ``Counter`` order, with the step's births and deaths given as genotypes,
    as ``_step_rewards`` takes them."""
    left_sum = popreward._left_sum
    counts = Counter(geno for _, geno in curr.alive)
    rewards = {}
    for aid, me in curr.alive:
        r_long = left_sum(hamming_similarity(me, u) for u in counts)
        r_comb = left_sum(c * hamming_similarity(me, u) for u, c in counts.items())
        r_repl = left_sum(hamming_similarity(me, u) for u in born) - left_sum(
            hamming_similarity(me, u) for u in died
        )
        rewards[aid] = RewardTriple(r_long, r_repl, r_comb)
    return rewards


def oracle_step_rewards(prev, curr):
    """``oracle_event_rewards`` with the births and deaths read off the two states' ids."""
    prev_ids = {aid for aid, _ in prev.alive}
    curr_ids = {aid for aid, _ in curr.alive}
    born = [geno for aid, geno in curr.alive if aid not in prev_ids]
    died = [geno for aid, geno in prev.alive if aid not in curr_ids]
    return oracle_event_rewards(curr, born, died)


POLICIES = {
    "random": lambda: RandomPolicy(0.3),
    "threshold": lambda: ThresholdPolicy(min_health=5.0),
    **{
        f"q-{kind}": lambda kind=kind: QReproductionPolicy(
            LearnerConfig(alpha=0.1, epsilon0=1.0, decay=0.97, epsilon_min=0.01), kind
        )
        for kind in QReproductionPolicy.REWARD_KINDS
    },
}


class TestRewardsBitExact:
    """The per-genotype reward path equals the per-agent sums exactly.

    The reference run swaps in the per-agent oracle for the step rewards,
    so for the Q policies it also checks that every reward fed back to the
    learner, and every choice it made from them, is unchanged. Every step
    is also checked against the oracle fed from the states alone, so the
    recorded births and deaths cannot drift from the state ids unseen.
    """

    def make_config(self, policy, mu):
        return SandboxConfig(
            space=GenotypeSpace(6, 2),
            initial_genotype=(0,) * 6,
            mutation=MutationSpec(mu),
            initial_health=10.0,
            food_rate=20,
            steps=70,
            policy=policy,
        )

    @pytest.mark.parametrize("mu", [0.0, 0.1, 0.3])
    @pytest.mark.parametrize("policy", sorted(POLICIES))
    def test_rewards_equal_per_agent_oracle(self, policy, mu, monkeypatch):
        trace = run_sandbox(self.make_config(POLICIES[policy](), mu), np.random.default_rng(4))
        with monkeypatch.context() as patch:
            patch.setattr(popreward, "_step_rewards", oracle_event_rewards)
            reference = run_sandbox(
                self.make_config(POLICIES[policy](), mu), np.random.default_rng(4)
            )
        assert trace.steps > 10
        assert trace.states == reference.states
        assert trace.healths == reference.healths
        assert trace.rewards == reference.rewards
        for t in range(1, len(trace.states)):
            assert trace.rewards[t - 1] == oracle_step_rewards(trace.states[t - 1], trace.states[t])

    @pytest.mark.parametrize("mu", [0.0, 0.1, 0.3])
    @pytest.mark.parametrize("policy", sorted(POLICIES))
    def test_events_equal_state_diffs(self, policy, mu):
        trace = run_sandbox(self.make_config(POLICIES[policy](), mu), np.random.default_rng(4))
        assert trace.steps > 10
        assert any(trace.births) and any(trace.deaths)
        for t in range(1, len(trace.states)):
            prev, curr = trace.states[t - 1].alive, trace.states[t].alive
            prev_ids = {aid for aid, _ in prev}
            curr_ids = {aid for aid, _ in curr}
            assert list(trace.births[t - 1]) == [p for p in curr if p[0] not in prev_ids]
            assert [(aid, geno) for aid, geno, _ in trace.deaths[t - 1]] == [
                p for p in prev if p[0] not in curr_ids
            ]

    def test_large_space_stays_sparse(self):
        # 4**40 genotypes: each step compares only the genotypes that meet in
        # it, in one transient match matrix, never a table over the space
        cfg = SandboxConfig(
            space=GenotypeSpace(40, 4),
            initial_genotype=(0,) * 40,
            mutation=MutationSpec(0.3),
            initial_health=10.0,
            food_rate=20,
            steps=40,
            policy=RandomPolicy(0.3),
        )
        trace = run_sandbox(cfg, np.random.default_rng(1))
        assert len({geno for s in trace.states for _, geno in s.alive}) > 20
        assert replication_identity_error(trace) < 1e-9
        for t in range(1, len(trace.states)):
            assert trace.rewards[t - 1] == oracle_step_rewards(trace.states[t - 1], trace.states[t])

    def test_adjacent_genes_at_the_variant_cap(self):
        # 2**63 - 1 and 2**63 - 2 differ, though as float64 both read 2**63
        top = 2**63 - 1
        prev = PopulationState(((0, (top, 0)), (1, (top - 1, 0)), (2, (top, top))))
        curr = PopulationState(((0, (top, 0)), (1, (top - 1, 0)), (3, (top - 1, top))))
        born, died = [(top - 1, top)], [(top, top)]
        rewards = popreward._step_rewards(curr, born, died, 2)
        assert rewards == oracle_event_rewards(curr, born, died)
        assert rewards[0] == RewardTriple(1.5, -0.5, 1.5)
        trace = popreward.PopulationTrace([prev, curr], [], [], [], [], [], [rewards])
        assert replication_identity_error(trace) == 0.0
        trace.rewards[0][3] = rewards[3]._replace(replication=rewards[3].replication + 0.5)
        assert replication_identity_error(trace) == 0.5

    def test_genes_at_the_variant_cap(self):
        # genes up to 2**63 - 1 still fit the int64 match matrix
        cfg = SandboxConfig(
            space=GenotypeSpace(6, 2**63),
            initial_genotype=(2**63 - 1,) * 6,
            mutation=MutationSpec(0.3),
            initial_health=10.0,
            food_rate=20,
            steps=40,
            policy=RandomPolicy(0.3),
        )
        trace = run_sandbox(cfg, np.random.default_rng(1))
        assert len({geno for s in trace.states for _, geno in s.alive}) > 20
        assert replication_identity_error(trace) < 1e-9
        for t in range(1, len(trace.states)):
            assert trace.rewards[t - 1] == oracle_step_rewards(trace.states[t - 1], trace.states[t])


class TestIdentityCheckSensitivity:
    """The integer identity check catches single-unit bookkeeping errors."""

    def make_trace(self):
        cfg = SandboxConfig(
            space=SPACE,
            initial_genotype=ME,
            mutation=MutationSpec(0.05),
            initial_health=10.0,
            food_rate=6,
            steps=120,
            policy=RandomPolicy(0.3),
        )
        trace = run_sandbox(cfg, np.random.default_rng(3))
        assert replication_identity_error(trace) < 1e-9
        return trace

    def test_corrupted_replication_caught(self):
        trace = self.make_trace()
        t = len(trace.states) // 2
        aid, _ = trace.states[t].alive[-1]
        triple = trace.rewards[t - 1][aid]
        trace.rewards[t - 1][aid] = triple._replace(replication=triple.replication + 1 / SPACE.loci)
        assert replication_identity_error(trace) >= 1 / SPACE.loci - 1e-12

    def test_dropped_newborn_caught(self):
        trace = self.make_trace()
        # a newborn whose genotype another agent alive at the same step carries
        t, newborn = next(
            (t, aid)
            for t in range(1, len(trace.states))
            for aid, geno in trace.births[t - 1]
            if sum(1 for _, other in trace.states[t].alive if other == geno) >= 2
        )
        alive = trace.states[t].alive
        trace.states[t] = PopulationState(tuple(p for p in alive if p[0] != newborn))
        assert replication_identity_error(trace) >= 1 / SPACE.loci - 1e-12


class TestTraceExports:
    def test_trace_csv_shape(self):
        cfg = SandboxConfig(
            space=SPACE,
            initial_genotype=ME,
            mutation=MutationSpec(0.0),
            initial_health=5.0,
            food_rate=0,
            steps=50,
            policy=IdlePolicy(),
        )
        trace = run_sandbox(cfg, np.random.default_rng(0))
        buf = io.StringIO()
        write_trace_csv(trace, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "t,agent_id,genotype,health,event"
        assert lines[1] == "1,0,1-1-1-1,4,none"
        assert lines[-1] == "5,0,1-1-1-1,0,death"

    def test_rewards_csv_shape(self):
        cfg = SandboxConfig(
            space=SPACE,
            initial_genotype=ME,
            mutation=MutationSpec(0.0),
            initial_health=6.0,
            food_rate=2,
            steps=3,
            policy=AlwaysReproducePolicy(),
        )
        trace = run_sandbox(cfg, np.random.default_rng(0))
        buf = io.StringIO()
        write_rewards_csv(trace, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "t,agent_id,r_longevity,r_replication,r_combined"
        assert lines[1].startswith("1,0,1,")

    def test_empty_trace_files(self):
        cfg = SandboxConfig(
            space=SPACE,
            initial_genotype=ME,
            mutation=MutationSpec(0.0),
            initial_health=5.0,
            food_rate=0,
            steps=0,
            policy=IdlePolicy(),
        )
        trace = run_sandbox(cfg, np.random.default_rng(0))
        t_buf, r_buf = io.StringIO(), io.StringIO()
        write_trace_csv(trace, t_buf)
        write_rewards_csv(trace, r_buf)
        assert t_buf.getvalue().splitlines() == ["t,agent_id,genotype,health,event"]
        assert r_buf.getvalue().splitlines() == ["t,agent_id,r_longevity,r_replication,r_combined"]
